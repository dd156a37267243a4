// tier_miss, tier_hit and tier_churn: open-loop load on the sharded serving
// tier (ShardedPolicyServer, tier defaults, kSql replicas).
//
//   tier_miss   2^20 preference fingerprints x all policies: the match
//               working set is far larger than the tier's match caches, so
//               nearly every request runs its rule queries in sqldb.
//   tier_hit    one fingerprint per JRC level and Zipf-skewed subjects over
//               a hot set that fits in a quarter of the cache capacity:
//               after warm-up nearly every request is a cache hit.
//   tier_churn  tier_miss traffic while installer threads reinstall corpus
//               policies into a durable tier (WAL, fsync on commit, group
//               commit); afterwards the tier is reopened and every
//               acknowledged install is checked.
//
// Every answer is checked against a single PolicyServer oracle built at
// set-up.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "p3p/reference_file.h"
#include "server/match_cache.h"
#include "server/policy_server.h"
#include "server/sharded_server.h"
#include "shredder/optimized_schema.h"
#include "sqldb/file_backend.h"
#include "sqldb/wal.h"
#include "src/open_loop.h"
#include "src/trace.h"
#include "src/workloads.h"
#include "workload/corpus.h"
#include "workload/jrc_preferences.h"

namespace p3pdb::perfbench {
namespace {

using server::CompiledPreference;
using server::EngineKind;
using server::MatchCache;
using server::MatchCacheKey;
using server::MatchResult;
using server::MatchSubject;
using server::PolicyServer;
using server::ShardedPolicyServer;

enum class Shape { kMiss, kHit, kChurn };

constexpr size_t kLevels = 5;
constexpr size_t kShards = 4;
constexpr double kFixedQps = 8000.0;
constexpr uint64_t kFingerprintSpace = 1ull << 20;
constexpr uint64_t kUriPercent = 20;
constexpr double kZipfS = 0.99;
// All installers together. At 100/s a 20 s run reinstalls each of the
// 1,024 policies about 1.8 times and every shard publishes ~25 times a
// second, while the installs (~2 ms each, mostly catch-up and fsync wait)
// take under a tenth of the four cores, so the match workers keep their
// rate.
constexpr double kInstallQps = 100.0;
constexpr double kKneeP99Us = 1000.0;
constexpr double kKneeResolution = 0.04;
constexpr uint64_t kTraceEvery = 16;         // matches replayed: 1 in 16
constexpr uint64_t kInstallTraceEvery = 2;   // installs replayed: 1 in 2
constexpr int kConvertSamplesPerLevel = 2;   // per measurement slice

struct Expected {
  std::string behavior;
  int fired = -1;
};

struct Request {
  bool uri = false;
  size_t level = 0;
  size_t subject = 0;  // corpus index
  uint64_t fingerprint = 0;
};

/// One acknowledged install: which policy, and the global id it returned.
struct Ack {
  size_t subject = 0;
  int64_t id = -1;
};

class TierBench {
 public:
  TierBench(const RunOptions& options, Shape shape, RunReport* report)
      : options_(options),
        shape_(shape),
        report_(report),
        policy_count_(options.smoke ? 64 : 1024),
        hot_count_(std::min<size_t>(512, policy_count_ / 2)),
        zipf_(hot_count_, kZipfS),
        installers_(shape == Shape::kChurn ? (options.threads >= 4 ? 2 : 1)
                                           : 0),
        workers_(std::max(1, options.threads - installers_)),
        store_dir_(options.work_dir + "/" + options.workload + "-store"),
        seed_mix_(Mix(options.seed * 0x51ed2701ull + 7)) {}

  ~TierBench() {
    TearDown();
    durable_replay_.reset();
    wal_.reset();
    wal_file_.reset();
    std::error_code ec;
    std::filesystem::remove_all(trace_dir_, ec);
  }

  Status Run();

 private:
  // -- set-up ---------------------------------------------------------------
  /// Drops the tier and its durable store. Runs before each set-up, outside
  /// the set-up timer.
  void TearDown();
  Status SetUp();
  Status BuildOracle();
  Status InstallCorpus();
  Status CompileAndWarm();
  /// Times CompilePreference on the tier (convert_p50_us). Called between
  /// measurement slices, so the samples span the run like the matches do.
  void SampleConvert();
  Status SetUpTracing();

  // -- requests ---------------------------------------------------------------
  Request MakeRequest(uint64_t index) const;
  int64_t DoRequest(int worker, uint64_t index);
  void Check(int worker, const Request& q, const Result<MatchResult>& r);
  void TraceMatch(const Request& q, uint64_t index, int64_t start,
                  int64_t done, const MatchResult& m);

  // -- churn ----------------------------------------------------------------
  void InstallerLoop(int installer, int64_t t0);
  void TraceInstall(size_t subject, uint64_t index, int64_t start,
                    int64_t done);
  std::vector<RequestRecord> RunFixedPhase(double seconds,
                                           uint64_t index_base);
  void VerifyChurn();

  void ReportLayers(const PhaseSummary& traced, double untraced_p50);

  RunOptions options_;
  Shape shape_;
  RunReport* report_;
  const size_t policy_count_;
  const size_t hot_count_;
  Zipf zipf_;
  const int installers_;
  const int workers_;
  const std::string store_dir_;
  std::string trace_dir_;
  const uint64_t seed_mix_;

  std::vector<p3p::Policy> corpus_;
  p3p::ReferenceFile rf_;
  std::vector<std::string> paths_;
  std::vector<appel::AppelRuleset> rulesets_;
  std::vector<uint64_t> level_fingerprints_;
  std::vector<Expected> expected_;     // [level * policy_count_ + subject]
  std::vector<size_t> hot_;            // hot subjects, by Zipf rank
  std::vector<int64_t> global_ids_;    // first install of each policy
  // InstallPolicy at set-up, over every set-up of the run.
  Samples setup_install_us_;
  std::unique_ptr<ShardedPolicyServer> tier_;
  // worker_prefs_[w][level]: each worker rewrites only its own fingerprint.
  std::vector<std::vector<CompiledPreference>> worker_prefs_;
  Samples convert_us_;

  // Churn state.
  std::atomic<bool> stop_installers_{false};
  std::vector<std::vector<Ack>> acks_;
  std::vector<Samples> install_us_;
  // MatchUri answers under churn: (returned global id, expected subject).
  std::vector<std::vector<std::pair<int64_t, size_t>>> uri_answers_;

  // Traced-run state. Matches update the cache model on every request;
  // replays of sampled matches and installs are serialized by replay_mu_.
  std::atomic<bool> tracing_{false};
  std::unique_ptr<MatchCache> model_cache_;
  // Standalone per-shard PolicyServers with the replica options, each
  // holding its shard's policies in the tier's install order. The layer
  // calls run on layer_servers_ and the whole replica match on
  // replica_servers_, so neither replay reads data the other just warmed.
  std::vector<std::unique_ptr<PolicyServer>> layer_servers_;
  std::vector<std::unique_ptr<PolicyServer>> replica_servers_;
  std::vector<int64_t> standalone_ids_;  // per subject, in its shard
  std::vector<CompiledPreference> replica_prefs_;  // per level
  // prepared_[shard][level]: rule queries prepared on layer_servers_.
  std::vector<std::vector<std::vector<sqldb::PreparedStatement>>> prepared_;
  std::mutex replay_mu_;
  SpanLog spans_;
  Samples overhead_us_;
  Samples replica_self_us_;
  Samples attributed_share_;
  ExecCounts exec_counts_;
  // Install replay (churn): shredder into a scratch database, a WAL writer,
  // and a durable store configured like the tier's.
  std::unique_ptr<sqldb::Database> shred_db_;
  std::unique_ptr<shredder::OptimizedShredder> shredder_;
  std::unique_ptr<sqldb::FileBackend> wal_file_;
  std::unique_ptr<sqldb::WalWriter> wal_;
  std::unique_ptr<PolicyServer> durable_replay_;
  Samples rows_per_policy_;
  Samples catchup_publish_us_;
  Samples traced_install_us_;
  uint64_t traced_installs_ = 0;
};

Shape ShapeOf(const std::string& workload) {
  if (workload == "tier_hit") return Shape::kHit;
  if (workload == "tier_churn") return Shape::kChurn;
  return Shape::kMiss;
}

// ---------------------------------------------------------------------------
// Set-up

Status TierBench::BuildOracle() {
  corpus_ = workload::FortuneCorpus(
      {.seed = options_.seed, .policy_count = policy_count_});
  rf_ = workload::CorpusReferenceFile(corpus_);
  paths_.clear();
  for (const p3p::Policy& policy : corpus_) {
    paths_.push_back("/" + policy.name + "/index.html");
  }
  // Hot set of tier_hit: a seeded permutation's prefix, Zipf rank order.
  std::vector<size_t> order(policy_count_);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[Mix(seed_mix_ + i) % i]);
  }
  hot_.assign(order.begin(), order.begin() + hot_count_);

  PolicyServer::Options o;
  o.engine = EngineKind::kSql;
  o.enable_match_cache = false;
  o.collect_metrics = false;
  o.enable_statement_stats = false;
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<PolicyServer> oracle,
                         PolicyServer::Create(o));
  std::vector<int64_t> ids;
  for (const p3p::Policy& policy : corpus_) {
    P3PDB_ASSIGN_OR_RETURN(int64_t id, oracle->InstallPolicy(policy));
    ids.push_back(id);
  }
  P3PDB_RETURN_IF_ERROR(oracle->InstallReferenceFile(rf_));
  rulesets_.clear();
  level_fingerprints_.clear();
  expected_.assign(kLevels * policy_count_, Expected{});
  for (size_t l = 0; l < kLevels; ++l) {
    rulesets_.push_back(
        workload::JrcPreference(workload::AllPreferenceLevels()[l]));
    P3PDB_ASSIGN_OR_RETURN(CompiledPreference pref,
                           oracle->CompilePreference(rulesets_.back()));
    level_fingerprints_.push_back(pref.fingerprint);
    for (size_t p = 0; p < policy_count_; ++p) {
      P3PDB_ASSIGN_OR_RETURN(MatchResult m,
                             oracle->MatchPolicyId(pref, ids[p]));
      expected_[l * policy_count_ + p] = {m.behavior, m.fired_rule_index};
    }
  }
  return Status::OK();
}

Status TierBench::InstallCorpus() {
  if (shape_ == Shape::kChurn) {
    std::error_code ec;
    std::filesystem::create_directories(store_dir_, ec);
    if (ec) return Status::Internal("cannot create " + store_dir_);
  }
  ShardedPolicyServer::Options o;
  o.shards = kShards;
  if (shape_ == Shape::kChurn) {
    // Bulk load without a per-commit fsync; closing the tier checkpoints
    // the corpus to disk, and the run reopens it with the tier's flush
    // defaults (sync on commit, group commit).
    o.storage_path = store_dir_;
    o.storage_sync_on_commit = false;
  }
  P3PDB_ASSIGN_OR_RETURN(tier_, ShardedPolicyServer::Create(o));

  // One installer, so each install is timed alone (setup_install_p50_us).
  global_ids_.assign(policy_count_, -1);
  for (size_t p = 0; p < policy_count_; ++p) {
    const int64_t start = NowNs();
    P3PDB_ASSIGN_OR_RETURN(global_ids_[p], tier_->InstallPolicy(corpus_[p]));
    setup_install_us_.Add(NsToUs(NowNs() - start));
  }
  P3PDB_RETURN_IF_ERROR(tier_->InstallReferenceFile(rf_));
  if (shape_ != Shape::kChurn) return Status::OK();
  tier_.reset();
  ShardedPolicyServer::Options serving;
  serving.shards = kShards;
  serving.storage_path = store_dir_;
  P3PDB_ASSIGN_OR_RETURN(tier_, ShardedPolicyServer::Create(serving));
  // Recovery replays installs in durable order, so the ids must not move.
  std::vector<int64_t> live = tier_->GlobalPolicyIds();
  std::vector<int64_t> installed = global_ids_;
  std::sort(live.begin(), live.end());
  std::sort(installed.begin(), installed.end());
  if (live != installed) {
    return Status::Internal("policy ids moved across the bulk-load reopen");
  }
  return Status::OK();
}

Status TierBench::CompileAndWarm() {
  worker_prefs_.clear();
  worker_prefs_.resize(workers_);
  for (int w = 0; w < workers_; ++w) {
    for (const appel::AppelRuleset& ruleset : rulesets_) {
      P3PDB_ASSIGN_OR_RETURN(CompiledPreference pref,
                             tier_->CompilePreference(ruleset));
      worker_prefs_[w].push_back(std::move(pref));
    }
  }
  if (shape_ == Shape::kHit) {
    // Fill the caches with the whole hot working set.
    for (size_t l = 0; l < kLevels; ++l) {
      for (size_t subject : hot_) {
        P3PDB_ASSIGN_OR_RETURN(MatchResult m,
                               tier_->MatchPolicyId(worker_prefs_[0][l],
                                                    global_ids_[subject]));
        (void)m;
      }
    }
  } else {
    for (uint64_t i = 0; i < 2000; ++i) (void)DoRequest(0, (1ull << 62) + i);
  }
  return Status::OK();
}

void TierBench::SampleConvert() {
  // The sql engine's conversion, here the tier's, which compiles once for
  // every shard.
  for (int rep = 0; rep < kConvertSamplesPerLevel; ++rep) {
    for (const appel::AppelRuleset& ruleset : rulesets_) {
      Status status = Status::OK();
      convert_us_.Add(TimeUs([&] {
        status = tier_->CompilePreference(ruleset).status();
      }));
      report_->outcomes.Attempt();
      if (!status.ok()) {
        report_->outcomes.Fail("compile error: " + status.ToString());
      }
    }
  }
}

void TierBench::TearDown() {
  tier_.reset();
  std::error_code ec;
  std::filesystem::remove_all(store_dir_, ec);
}

Status TierBench::SetUp() {
  uri_answers_.assign(workers_, {});
  P3PDB_RETURN_IF_ERROR(BuildOracle());
  P3PDB_RETURN_IF_ERROR(InstallCorpus());
  return CompileAndWarm();
}

Status TierBench::SetUpTracing() {
  trace_dir_ = options_.work_dir + "/" + options_.workload + "-trace";
  std::error_code ec;
  std::filesystem::remove_all(trace_dir_, ec);
  std::filesystem::create_directories(trace_dir_, ec);
  if (ec) return Status::Internal("cannot create " + trace_dir_);

  // Tier-wide cache capacity, as one standalone cache: shards x replica
  // cache shards, each of the replica's per-shard capacity.
  const ShardedPolicyServer::Options& tier_options = tier_->options();
  model_cache_ = std::make_unique<MatchCache>(
      MatchCache::Options{
          .shards = kShards * tier_options.match_cache_shards,
          .capacity_per_shard = tier_options.match_cache_capacity_per_shard},
      nullptr);

  PolicyServer::Options o;
  o.engine = tier_options.engine;
  o.enable_planner = tier_options.enable_planner;
  o.enable_vectorized_executor = tier_options.enable_vectorized_executor;
  o.enable_cost_model = tier_options.enable_cost_model;
  o.enable_match_cache = tier_options.enable_match_cache;
  o.match_cache_shards = tier_options.match_cache_shards;
  o.match_cache_capacity_per_shard =
      tier_options.match_cache_capacity_per_shard;
  o.enable_statement_stats = tier_options.enable_statement_stats;
  o.collect_metrics = false;
  // Global id = local id * shards + shard: install each shard's policies
  // in global-id order to rebuild the replica exactly.
  std::vector<size_t> by_id(policy_count_);
  for (size_t p = 0; p < policy_count_; ++p) by_id[p] = p;
  std::sort(by_id.begin(), by_id.end(), [&](size_t a, size_t b) {
    return global_ids_[a] < global_ids_[b];
  });
  layer_servers_.clear();
  replica_servers_.clear();
  for (size_t k = 0; k < kShards; ++k) {
    P3PDB_ASSIGN_OR_RETURN(auto layer, PolicyServer::Create(o));
    P3PDB_ASSIGN_OR_RETURN(auto replica, PolicyServer::Create(o));
    layer_servers_.push_back(std::move(layer));
    replica_servers_.push_back(std::move(replica));
  }
  standalone_ids_.assign(policy_count_, -1);
  for (size_t p : by_id) {
    const size_t k = global_ids_[p] % kShards;
    P3PDB_ASSIGN_OR_RETURN(int64_t id,
                           layer_servers_[k]->InstallPolicy(corpus_[p]));
    P3PDB_ASSIGN_OR_RETURN(int64_t same,
                           replica_servers_[k]->InstallPolicy(corpus_[p]));
    if (id != same) return Status::Internal("standalone ids diverged");
    standalone_ids_[p] = id;
  }
  replica_prefs_.clear();
  for (const appel::AppelRuleset& ruleset : rulesets_) {
    P3PDB_ASSIGN_OR_RETURN(CompiledPreference pref,
                           layer_servers_[0]->CompilePreference(ruleset));
    replica_prefs_.push_back(std::move(pref));
  }
  prepared_.assign(kShards, {});
  for (size_t k = 0; k < kShards; ++k) {
    for (const CompiledPreference& pref : replica_prefs_) {
      P3PDB_ASSIGN_OR_RETURN(
          auto prepared, PrepareRules(layer_servers_[k]->database(), pref.sql));
      prepared_[k].push_back(std::move(prepared));
    }
  }
  if (shape_ == Shape::kHit) {
    for (size_t l = 0; l < kLevels; ++l) {
      for (size_t subject : hot_) {
        const size_t k = global_ids_[subject] % kShards;
        P3PDB_ASSIGN_OR_RETURN(
            MatchResult m, replica_servers_[k]->MatchPolicyId(
                               replica_prefs_[l], standalone_ids_[subject]));
        m.policy_id = global_ids_[subject];
        model_cache_->Insert(
            MatchCacheKey{level_fingerprints_[l], MatchSubject::kPolicyId,
                          global_ids_[subject], std::string(),
                          static_cast<uint8_t>(EngineKind::kSql)},
            1, m);
      }
    }
  }
  if (shape_ == Shape::kChurn) {
    shred_db_ = std::make_unique<sqldb::Database>();
    P3PDB_RETURN_IF_ERROR(shredder::InstallOptimizedSchema(shred_db_.get()));
    shredder_ = std::make_unique<shredder::OptimizedShredder>(shred_db_.get());
    P3PDB_ASSIGN_OR_RETURN(wal_file_,
                           sqldb::OpenPosixFile(trace_dir_ + "/replay.wal"));
    wal_ = std::make_unique<sqldb::WalWriter>(wal_file_.get(), 0);
    // Configured like the tier's durable store (see sharded_server.cc).
    PolicyServer::Options d;
    d.engine = EngineKind::kNativeAppel;
    d.collect_metrics = false;
    d.enable_match_cache = false;
    d.enable_statement_stats = false;
    d.storage_path = trace_dir_ + "/durable";
    d.storage_group_commit = tier_options.storage_group_commit;
    d.storage_group_commit_window_us =
        tier_options.storage_group_commit_window_us;
    d.storage_sync_on_commit = tier_options.storage_sync_on_commit;
    P3PDB_ASSIGN_OR_RETURN(durable_replay_, PolicyServer::Create(d));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Requests

Request TierBench::MakeRequest(uint64_t index) const {
  const uint64_t r = Mix(seed_mix_ ^ Mix(index));
  Request q;
  q.uri = r % 100 < kUriPercent;
  q.level = (r >> 8) % kLevels;
  if (shape_ == Shape::kHit) {
    q.subject = hot_[zipf_.Sample(Mix(r))];
    q.fingerprint = level_fingerprints_[q.level];
  } else {
    q.subject = (r >> 16) % policy_count_;
    // A fingerprint names one preference, so each level draws from its own
    // residue class of the 2^20 space.
    q.fingerprint =
        1 + ((r >> 40) % (kFingerprintSpace / kLevels)) * kLevels + q.level;
  }
  return q;
}

int64_t TierBench::DoRequest(int worker, uint64_t index) {
  const Request q = MakeRequest(index);
  CompiledPreference& pref = worker_prefs_[worker][q.level];
  pref.fingerprint = q.fingerprint;
  const int64_t start = NowNs();
  Result<MatchResult> r =
      q.uri ? tier_->MatchUri(pref, paths_[q.subject])
            : tier_->MatchPolicyId(pref, global_ids_[q.subject]);
  const int64_t done = NowNs();
  Check(worker, q, r);
  if (tracing_.load(std::memory_order_relaxed) && r.ok()) {
    TraceMatch(q, index, start, done, r.value());
  }
  return done;
}

void TierBench::Check(int worker, const Request& q,
                      const Result<MatchResult>& r) {
  report_->outcomes.Attempt();
  if (!r.ok()) {
    report_->outcomes.Fail("match error: " + r.status().ToString());
    return;
  }
  const MatchResult& m = r.value();
  const Expected& e = expected_[q.level * policy_count_ + q.subject];
  if (!m.policy_found || m.behavior != e.behavior ||
      m.fired_rule_index != e.fired) {
    report_->outcomes.Fail("wrong answer for policy " +
                           corpus_[q.subject].name + ": got " + m.behavior +
                           "/" + std::to_string(m.fired_rule_index) +
                           ", oracle " + e.behavior + "/" +
                           std::to_string(e.fired));
    return;
  }
  if (q.uri && shape_ == Shape::kChurn) {
    // A reinstall mints a new id; checked against the acks after the run.
    uri_answers_[worker].push_back({m.policy_id, q.subject});
  } else if (m.policy_id != global_ids_[q.subject]) {
    report_->outcomes.Fail("wrong policy id for " + corpus_[q.subject].name);
  }
}

void TierBench::TraceMatch(const Request& q, uint64_t index, int64_t start,
                           int64_t done, const MatchResult& m) {
  // Every request is replayed, so the cache model and the standalone
  // servers see the tier's whole key stream; spans are kept for one in
  // kTraceEvery.
  const bool sampled = index % kTraceEvery == 0;
  std::lock_guard<std::mutex> lock(replay_mu_);
  const size_t shard = global_ids_[q.subject] % kShards;
  const int64_t local_id = standalone_ids_[q.subject];

  const MatchCacheKey key{q.fingerprint, MatchSubject::kPolicyId,
                          m.policy_id, std::string(),
                          static_cast<uint8_t>(EngineKind::kSql)};
  const int64_t lookup_start = NowNs();
  const bool hit = model_cache_->Lookup(key, 1).has_value();
  const int64_t lookup_end = NowNs();
  int64_t insert_start = 0;
  int64_t insert_end = 0;
  if (!hit) {
    insert_start = NowNs();
    model_cache_->Insert(key, 1, m);
    insert_end = NowNs();
  }
  int64_t resolve_start = 0;
  int64_t resolve_end = 0;
  if (q.uri) {
    resolve_start = NowNs();
    (void)rf_.PolicyForPath(paths_[q.subject]);
    resolve_end = NowNs();
  }
  double attributed_us = NsToUs(lookup_end - lookup_start) +
                         NsToUs(insert_end - insert_start) +
                         NsToUs(resolve_end - resolve_start);

  int64_t root = -1;
  if (sampled) {
    root = spans_.Add("server.tier.match", start, done, -1, index);
    spans_.Add("server.match_cache.lookup", lookup_start, lookup_end, root,
               index);
    if (!hit) {
      spans_.Add("server.match_cache.insert", insert_start, insert_end, root,
                 index);
    }
    if (q.uri) {
      spans_.Add("p3p.resolve", resolve_start, resolve_end, root, index);
    }
  }
  // The whole replica match first, then the layer calls: the rule replay
  // ends with the conversion extras of sampled requests, which must not
  // run between the tier call and either timed replay.
  CompiledPreference& pref = replica_prefs_[q.level];
  pref.fingerprint = q.fingerprint;
  PolicyServer& replica = *replica_servers_[shard];
  sqldb::ExecStats before;
  if (sampled) before = replica.database()->stats();
  const int64_t replica_start = NowNs();
  (void)replica.MatchPolicyId(pref, local_id);
  const int64_t replica_end = NowNs();
  if (sampled) {
    exec_counts_.Add(before, replica.database()->stats());
    spans_.Add("server.replica.match", replica_start, replica_end, root,
               index);
  }
  if (!hit) {
    attributed_us +=
        ReplayRuleQueries(layer_servers_[shard]->database(), pref.sql,
                          prepared_[shard][q.level], local_id,
                          sampled ? &spans_ : nullptr, root, index);
  }
  if (!sampled) return;
  const double tier_us = NsToUs(done - start);
  const double replica_us = NsToUs(replica_end - replica_start);
  overhead_us_.Add(tier_us - replica_us);
  // Replica self time: the replica match minus the layer calls it makes
  // (cache probe and insert, rule queries); resolution is the tier's.
  replica_self_us_.Add(replica_us - attributed_us +
                       NsToUs(resolve_end - resolve_start));
  if (tier_us > 0.0) attributed_share_.Add(attributed_us / tier_us);
}

// ---------------------------------------------------------------------------
// Churn

void TierBench::InstallerLoop(int installer, int64_t t0) {
  // Every installer has the same due instants, so their commits reach the
  // durable store together; sqldb.wal.group_size shows whether group commit
  // coalesces them.
  const double period_ns = 1e9 * installers_ / kInstallQps;
  for (uint64_t k = 0;; ++k) {
    const int64_t due = t0 + static_cast<int64_t>(k * period_ns);
    while (!stop_installers_.load() && NowNs() < due) {
      const int64_t left = due - NowNs();
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::clamp<int64_t>(left, 0, 5'000'000)));
    }
    if (stop_installers_.load()) return;
    // Round-robin over names, installers on disjoint names, so every shard
    // publishes and each name's versions come from one thread in order.
    const size_t subject =
        (installer + k * installers_) % policy_count_;
    const int64_t start = NowNs();
    Result<int64_t> id = tier_->InstallPolicy(corpus_[subject]);
    const int64_t done = NowNs();
    report_->outcomes.Attempt();
    if (!id.ok()) {
      report_->outcomes.Fail("install error: " + id.status().ToString());
      continue;
    }
    acks_[installer].push_back({subject, id.value()});
    install_us_[installer].Add(NsToUs(done - start));
    if (tracing_.load() && k % kInstallTraceEvery == 0) {
      TraceInstall(subject, (static_cast<uint64_t>(installer) << 48) | k,
                   start, done);
    }
  }
}

void TierBench::TraceInstall(size_t subject, uint64_t index, int64_t start,
                             int64_t done) {
  std::lock_guard<std::mutex> lock(replay_mu_);
  ++traced_installs_;
  const int64_t root =
      spans_.Add("server.tier.install", start, done, -1, index);
  traced_install_us_.Add(NsToUs(done - start));
  auto table_rows = [&] {
    size_t rows = 0;
    for (const std::string& name : shred_db_->TableNames()) {
      rows += shred_db_->LookupTable(name)->RowCount();
    }
    return rows;
  };
  const size_t rows_before = table_rows();
  spans_.Time("shredder.shred", root, index,
              [&] { (void)shredder_->ShredPolicy(corpus_[subject]); });
  rows_per_policy_.Add(static_cast<double>(table_rows() - rows_before));

  // A commit-sized WAL append + fsync, on the benchmark's own WAL file.
  sqldb::WalRecord record;
  record.txn_id = index;
  record.payload.assign(2048, 0x5a);
  const int64_t append_start = NowNs();
  (void)wal_->Append(record);
  const int64_t sync_start = NowNs();
  (void)wal_->Sync();
  const int64_t sync_end = NowNs();
  const int64_t commit =
      spans_.Add("sqldb.wal.commit", append_start, sync_end, root, index);
  spans_.Add("sqldb.wal.fsync", sync_start, sync_end, commit, index);

  const int64_t durable = spans_.Time("durable.install", root, index, [&] {
    (void)durable_replay_->InstallPolicy(corpus_[subject]);
  });
  catchup_publish_us_.Add(NsToUs(done - start) - spans_.DurationUs(durable));
}

std::vector<RequestRecord> TierBench::RunFixedPhase(double seconds,
                                                    uint64_t index_base) {
  PhaseConfig config;
  config.qps = kFixedQps;
  config.seconds = seconds;
  config.threads = workers_;
  config.index_base = index_base;
  return RunPhase(config, [this](int w, uint64_t i) {
    return DoRequest(w, i);
  });
}

void TierBench::VerifyChurn() {
  // Every global id a client could have seen, mapped to its policy.
  std::unordered_map<int64_t, size_t> owner;
  for (size_t p = 0; p < policy_count_; ++p) owner[global_ids_[p]] = p;
  std::vector<size_t> reinstalls(policy_count_, 0);
  for (const auto& acks : acks_) {
    for (const Ack& ack : acks) {
      owner[ack.id] = ack.subject;
      ++reinstalls[ack.subject];
    }
  }
  for (const auto& answers : uri_answers_) {
    for (const auto& [id, subject] : answers) {
      auto it = owner.find(id);
      if (it == owner.end() || it->second != subject) {
        report_->outcomes.Fail("MatchUri answered id " + std::to_string(id) +
                               " for " + corpus_[subject].name);
      }
    }
  }

  // Reopen the durable directory and check every acknowledged install.
  ShardedPolicyServer::Options o = tier_->options();
  tier_.reset();
  Result<std::unique_ptr<ShardedPolicyServer>> reopened =
      ShardedPolicyServer::Create(o);
  if (!reopened.ok()) {
    report_->outcomes.Fail("reopen failed: " + reopened.status().ToString());
    return;
  }
  ShardedPolicyServer& tier = *reopened.value();
  std::map<std::string, std::set<int64_t>> versions;
  Result<std::vector<server::InstalledPolicyRecord>> records =
      tier.durable_store()->InstalledPolicyRecords();
  if (!records.ok()) {
    report_->outcomes.Fail("catalog read failed after reopen");
    return;
  }
  for (const auto& record : records.value()) {
    versions[record.name].insert(record.version);
  }
  for (size_t p = 0; p < policy_count_; ++p) {
    const std::set<int64_t>& have = versions[corpus_[p].name];
    for (int64_t v = 1; v <= static_cast<int64_t>(1 + reinstalls[p]); ++v) {
      if (have.count(v) == 0) {
        report_->outcomes.Fail("lost install " + corpus_[p].name + " v" +
                               std::to_string(v));
      }
    }
  }
  // Every acknowledged global id still answers, with the oracle's answer.
  std::vector<CompiledPreference> prefs;
  for (const appel::AppelRuleset& ruleset : rulesets_) {
    Result<CompiledPreference> pref = tier.CompilePreference(ruleset);
    if (!pref.ok()) {
      report_->outcomes.Fail("compile failed after reopen");
      return;
    }
    prefs.push_back(std::move(pref).value());
  }
  const std::vector<int64_t> live = tier.GlobalPolicyIds();
  const std::set<int64_t> live_set(live.begin(), live.end());
  for (const auto& [id, subject] : owner) {
    report_->outcomes.Attempt();
    const size_t level = static_cast<size_t>(id) % kLevels;
    Result<MatchResult> m = tier.MatchPolicyId(prefs[level], id);
    const Expected& e = expected_[level * policy_count_ + subject];
    if (live_set.count(id) == 0 || !m.ok() || m.value().policy_id != id ||
        m.value().behavior != e.behavior ||
        m.value().fired_rule_index != e.fired) {
      report_->outcomes.Fail("acknowledged id " + std::to_string(id) +
                             " wrong or missing after reopen");
    }
  }
}

// ---------------------------------------------------------------------------
// Run

void TierBench::ReportLayers(const PhaseSummary& traced,
                             double untraced_p50) {
  MetricSet& m = report_->per_layer;
  auto median = [&](const char* span) {
    return spans_.DurationsUs(span).Median();
  };
  m.Set("server.tier.match_us", median("server.tier.match"), "us");
  m.Set("server.replica.match_us", median("server.replica.match"), "us");
  m.Set("server.tier.overhead_us", overhead_us_.Median(), "us");
  m.Set("server.replica.self_us", replica_self_us_.Median(), "us");
  const MatchCache::Stats cache = model_cache_->TotalStats();
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  m.Set("server.match_cache.hit_ratio", cache.HitRate(), "ratio");
  m.Set("server.match_cache.lookup_us", median("server.match_cache.lookup"),
        "us");
  m.Set("server.match_cache.evictions_per_kop",
        lookups > 0 ? cache.evictions / (lookups / 1000.0) : 0.0,
        "count/kop");
  m.Set("p3p.resolve_us", median("p3p.resolve"), "us");
  m.Set("sqldb.query_us", median("sqldb.query"), "us");
  m.Set("sqldb.execute_us", median("sqldb.execute"), "us");
  m.Set("sqldb.lex_us", median("sqldb.lex"), "us");
  m.Set("sqldb.parse_us", median("sqldb.parse"), "us");
  m.Set("sqldb.bind_us", median("sqldb.bind"), "us");
  m.Set("sqldb.plan_us", median("sqldb.plan"), "us");
  const ExecCounts& c = exec_counts_;
  if (c.matches > 0) {
    m.Set("sqldb.rules_per_match", c.statements / c.matches, "count");
    m.Set("sqldb.rows_scanned_per_match", c.rows_scanned / c.matches,
          "count");
    m.Set("sqldb.hash_join_probes_per_match", c.hash_join_probes / c.matches,
          "count");
  }
  const double plans = c.plans_built + c.plan_cache_hits;
  m.Set("sqldb.plan_cache.hit_ratio", plans > 0 ? c.plan_cache_hits / plans
                                                : 0.0,
        "ratio");
  m.Set("trace.unattributed_ratio", 1.0 - attributed_share_.Median(),
        "ratio");
  m.Set("trace.overhead_ratio",
        untraced_p50 > 0 ? traced.service_us.Median() / untraced_p50 - 1.0
                         : 0.0,
        "ratio");
  m.Set("trace.spans", static_cast<double>(spans_.size()), "count");
  if (shape_ == Shape::kChurn) {
    m.Set("shredder.shred_us", median("shredder.shred"), "us");
    m.Set("shredder.rows_per_policy", rows_per_policy_.Mean(), "count");
    m.Set("server.tier.install_us", traced_install_us_.Median(), "us");
    m.Set("server.tier.catchup_publish_us", catchup_publish_us_.Median(),
          "us");
    m.Set("sqldb.wal.commit_us", median("sqldb.wal.commit"), "us");
    m.Set("sqldb.wal.fsync_us", median("sqldb.wal.fsync"), "us");
    m.Set("server.match_cache.invalidations_per_install",
          traced_installs_ > 0
              ? static_cast<double>(cache.invalidations) / traced_installs_
              : 0.0,
          "count");
  }
}

Status TierBench::Run() {
  const double s = options_.seconds;
  acks_.assign(installers_, {});
  install_us_.assign(installers_, Samples());

  // Set-up, several times. On tier_miss and tier_hit the set-ups are spread
  // over the measurement slices, each replacing the tier with an identical
  // one, so setup_s and setup_install_p50_us average over the same stretch
  // of machine time as the match metrics: this host has slow and fast
  // phases lasting seconds. tier_churn sets up before its installers start;
  // a traced run sets up once.
  Samples setup_s;
  const int setups = options_.trace ? 1 : kSetupRepetitions;
  int setups_done = 0;
  auto set_up = [&]() -> Status {
    TearDown();  // outside the timer
    Status status = Status::OK();
    setup_s.Add(TimeUs([&] { status = SetUp(); }) / 1e6);
    ++setups_done;
    return status;
  };
  P3PDB_RETURN_IF_ERROR(set_up());
  while (shape_ == Shape::kChurn && setups_done < setups) {
    P3PDB_RETURN_IF_ERROR(set_up());
  }
  if (options_.trace) P3PDB_RETURN_IF_ERROR(SetUpTracing());
  if (shape_ == Shape::kChurn) {
    std::printf(
        "durability: store %s, sync on commit %d, group commit %d, "
        "window %llu us, %d installer threads at %.0f installs/s total, "
        "%d match workers\n",
        store_dir_.c_str(), tier_->options().storage_sync_on_commit,
        tier_->options().storage_group_commit,
        static_cast<unsigned long long>(
            tier_->options().storage_group_commit_window_us),
        installers_, kInstallQps, workers_);
  }

  // Calibration: no-op requests on the same dispatch path.
  PhaseConfig calibration;
  calibration.qps = kFixedQps;
  calibration.seconds = std::max(0.2, 0.05 * s);
  calibration.threads = workers_;
  const PhaseSummary calibrated = Summarize(
      RunPhase(calibration, [](int, uint64_t) { return NowNs(); }),
      kFixedQps);

  std::vector<std::thread> installers;
  const sqldb::StorageStats wal_before =
      tier_->durable_store() != nullptr
          ? tier_->durable_store()->database()->storage_stats()
          : sqldb::StorageStats{};
  if (shape_ == Shape::kChurn) {
    const int64_t t0 = NowNs();
    for (int t = 0; t < installers_; ++t) {
      installers.emplace_back([this, t, t0] { InstallerLoop(t, t0); });
    }
  }

  // The untraced fixed-rate measurement, in slices spread over the run so
  // its medians average over more of the machine's state. On tier_miss and
  // tier_hit each slice is followed by one phase of the knee search.
  const bool with_knee = !options_.trace && shape_ != Shape::kChurn;
  const double fixed_s =
      options_.trace ? 0.45 * s : (with_knee ? 0.4 * s : 0.9 * s);
  const int slices = options_.smoke ? 2 : 16;
  const double knee_phase_s = options_.smoke ? 0.1 : 0.5;
  const int max_knee_phases =
      with_knee ? static_cast<int>(0.5 * s / knee_phase_s) : 0;
  const RequestFn request = [this](int w, uint64_t i) {
    return DoRequest(w, i);
  };
  KneeSearch knee(kFixedQps, kKneeResolution);
  auto knee_step = [&] {
    if (knee.done() || knee.phases() >= max_knee_phases) return;
    PhaseConfig config;
    config.qps = knee.next_qps();
    config.seconds = knee_phase_s;
    config.threads = workers_;
    config.index_base =
        (3ull << 40) + (static_cast<uint64_t>(knee.phases()) << 32);
    knee.Record(Sustained(Summarize(RunPhase(config, request), config.qps),
                          kKneeP99Us));
  };
  std::vector<RequestRecord> fixed_records;
  for (int k = 0; k < slices; ++k) {
    // Set-up j of the run goes before slice ceil(j * slices / setups).
    while (setups_done < setups && setups_done * slices <= k * setups) {
      P3PDB_RETURN_IF_ERROR(set_up());
    }
    std::vector<RequestRecord> part = RunFixedPhase(
        fixed_s / slices, (1ull << 40) + (static_cast<uint64_t>(k) << 32));
    fixed_records.insert(fixed_records.end(), part.begin(), part.end());
    SampleConvert();
    knee_step();
  }
  while (setups_done < setups) P3PDB_RETURN_IF_ERROR(set_up());
  while (!knee.done() && knee.phases() < max_knee_phases) knee_step();
  const PhaseSummary fixed = Summarize(fixed_records, kFixedQps);
  PhaseSummary traced;
  uint64_t installs_before_trace = 0;
  for (const auto& a : acks_) installs_before_trace += a.size();
  sqldb::StorageStats wal_mid = wal_before;
  if (options_.trace) {
    if (tier_->durable_store() != nullptr) {
      wal_mid = tier_->durable_store()->database()->storage_stats();
    }
    tracing_.store(true);
    traced = Summarize(RunFixedPhase(0.45 * s, 2ull << 40), kFixedQps);
    tracing_.store(false);
  }
  stop_installers_.store(true);
  for (std::thread& t : installers) t.join();
  uint64_t installs = 0;
  Samples install_us;
  for (int t = 0; t < installers_; ++t) {
    installs += acks_[t].size();
    install_us.Append(install_us_[t]);
  }

  // End-to-end metrics (from the untraced phase).
  MetricSet& e = report_->end_to_end;
  e.Set("setup_s", setup_s.Median(), "s");
  e.Set("match_p50_us", fixed.service_us.Median(), "us");
  e.Set("match_p99_us", fixed.service_us.Percentile(99.0), "us");
  e.Set("convert_p50_us", convert_us_.Median(), "us");
  e.Set("match_samples", static_cast<double>(fixed.completed), "count");
  if (with_knee) {
    e.Set("knee_qps", knee.knee_qps(), "1/s");
    e.Set("knee_phases", knee.phases(), "count");
  }
  // On tier_churn the set-up installs go to the durable tier with sync off:
  // WAL append, shredder, catch-up and publish, but no fsync wait.
  e.Set("setup_install_p50_us", setup_install_us_.Median(), "us");
  if (shape_ == Shape::kChurn) {
    // The fsync-bound reinstalls under load; printed, not gated (see
    // README.md).
    e.Set("install_p50_us", install_us.Median(), "us");
    if (install_us.size() >= 1000) {
      e.Set("install_p99_us", install_us.Percentile(99.0), "us");
    } else {
      std::printf("note: install_p99_us omitted: %zu installs < 1000\n",
                  install_us.size());
    }
    e.Set("install_samples", static_cast<double>(install_us.size()),
          "count");
  }

  // Per-layer metrics.
  MetricSet& m = report_->per_layer;
  m.Set("bench.dispatch_lag_p50_us", fixed.lag_us.Median(), "us");
  m.Set("bench.dispatch_lag_p99_us", fixed.lag_us.Percentile(99.0), "us");
  m.Set("bench.late_ratio", fixed.late_ratio, "ratio");
  m.Set("bench.calibration_lag_p50_us", calibrated.lag_us.Median(), "us");
  m.Set("bench.calibration_lag_p99_us", calibrated.lag_us.Percentile(99.0),
        "us");
  if (shape_ == Shape::kChurn && installs > 0) {
    const sqldb::StorageStats wal_after =
        tier_->durable_store()->database()->storage_stats();
    // Over the traced phase when there is one, else the whole churn.
    const sqldb::StorageStats& base = options_.trace ? wal_mid : wal_before;
    const uint64_t phase_installs =
        options_.trace ? installs - installs_before_trace : installs;
    const double n = static_cast<double>(std::max<uint64_t>(1, phase_installs));
    const uint64_t syncs = wal_after.wal_syncs - base.wal_syncs;
    const uint64_t commits = wal_after.wal_commits - base.wal_commits;
    m.Set("sqldb.wal.fsyncs_per_install", syncs / n, "count");
    m.Set("sqldb.wal.bytes_per_install",
          (wal_after.wal_bytes - base.wal_bytes) / n, "B");
    m.Set("sqldb.wal.group_size",
          syncs > 0 ? static_cast<double>(commits) / syncs : 0.0, "count");
    m.Set("sqldb.checkpoints",
          static_cast<double>(wal_after.checkpoints - base.checkpoints),
          "count");
  }
  if (options_.trace) {
    ReportLayers(traced, fixed.service_us.Median());
    Status written = spans_.WriteJsonl(options_.work_dir + "/" +
                                       options_.workload + "-seed" +
                                       std::to_string(options_.seed) +
                                       ".spans.jsonl");
    P3PDB_RETURN_IF_ERROR(written);
  }

  if (shape_ == Shape::kChurn) VerifyChurn();
  return Status::OK();
}

}  // namespace

Status RunTierWorkload(const RunOptions& options, RunReport* report) {
  TierBench bench(options, ShapeOf(options.workload), report);
  return bench.Run();
}

}  // namespace p3pdb::perfbench
