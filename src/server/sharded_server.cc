#include "server/sharded_server.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "p3p/policy_xml.h"
#include "server/admin_http.h"

namespace p3pdb::server {

ShardedPolicyServer::ShardedPolicyServer(Options options)
    : options_(std::move(options)) {}

ShardedPolicyServer::~ShardedPolicyServer() {
  // The admin thread's handlers walk the shards; stop it before anything
  // else unwinds.
  admin_.reset();
}

Result<std::unique_ptr<ShardedPolicyServer>> ShardedPolicyServer::Create(
    Options options) {
  if (options.shards == 0) {
    return Status::InvalidArgument("sharded tier needs at least one shard");
  }
  std::unique_ptr<ShardedPolicyServer> tier(
      new ShardedPolicyServer(std::move(options)));
  P3PDB_RETURN_IF_ERROR(tier->Init());
  return tier;
}

Result<std::shared_ptr<PolicyServer>> ShardedPolicyServer::MakeReplica()
    const {
  PolicyServer::Options o;
  o.engine = options_.engine;
  o.enable_planner = options_.enable_planner;
  o.enable_vectorized_executor = options_.enable_vectorized_executor;
  o.enable_cost_model = options_.enable_cost_model;
  o.enable_match_cache = options_.enable_match_cache;
  o.match_cache_shards = options_.match_cache_shards;
  o.match_cache_capacity_per_shard = options_.match_cache_capacity_per_shard;
  o.enable_statement_stats = options_.enable_statement_stats;
  // Replicas are purely in-memory evaluation engines: durability lives in
  // the tier's durable store, telemetry in the tier registry.
  o.collect_metrics = false;
  o.enable_admin_endpoint = false;
  P3PDB_ASSIGN_OR_RETURN(auto server, PolicyServer::Create(std::move(o)));
  return std::shared_ptr<PolicyServer>(std::move(server));
}

Status ShardedPolicyServer::Init() {
  shards_.reserve(options_.shards);
  for (size_t k = 0; k < options_.shards; ++k) {
    auto shard = std::make_unique<Shard>();
    for (Replica& replica : shard->replicas) {
      P3PDB_ASSIGN_OR_RETURN(replica.server, MakeReplica());
    }
    auto snapshot = std::make_shared<const ShardSnapshot>(
        ShardSnapshot{shard->replicas[0].server, /*epoch=*/1, /*policies=*/0});
    shard->published.Store(std::move(snapshot));
    if (options_.collect_metrics) {
      const std::string prefix = "p3p_shard_" + std::to_string(k);
      shard->matches_total = metrics_.GetCounter(prefix + "_matches_total");
      shard->policies_gauge = metrics_.GetGauge(prefix + "_policies");
      shard->epoch_gauge = metrics_.GetGauge(prefix + "_epoch");
      shard->epoch_gauge->Set(1);
    }
    shards_.push_back(std::move(shard));
  }
  if (options_.collect_metrics) {
    matches_total_ = metrics_.GetCounter("p3p_matches_total");
    no_policy_total_ = metrics_.GetCounter("p3p_no_policy_total");
    installs_total_ = metrics_.GetCounter("p3p_installs_total");
    metrics_.GetGauge("p3p_tier_shards")
        ->Set(static_cast<int64_t>(options_.shards));
  }

  if (!options_.storage_path.empty()) {
    // The durable store shreds nothing (kNativeAppel keeps catalog rows and
    // policy text only) and serves no traffic; it is the WAL-backed system
    // of record whose group commit coalesces cross-shard install fsyncs.
    PolicyServer::Options o;
    o.engine = EngineKind::kNativeAppel;
    o.collect_metrics = false;
    o.enable_match_cache = false;
    o.enable_statement_stats = false;
    o.storage_path = options_.storage_path;
    o.storage_sync_on_commit = options_.storage_sync_on_commit;
    o.storage_checkpoint_wal_bytes = options_.storage_checkpoint_wal_bytes;
    o.storage_checkpoint_on_close = options_.storage_checkpoint_on_close;
    o.storage_group_commit = options_.storage_group_commit;
    o.storage_group_commit_window_us = options_.storage_group_commit_window_us;
    P3PDB_ASSIGN_OR_RETURN(auto durable, PolicyServer::Create(std::move(o)));
    durable_ = std::move(durable);

    // Recovery replay: the durable catalog, re-parsed and re-routed through
    // the same shard map, reproduces every replica and every global id (the
    // routing hash and the replicas' id sequences are deterministic).
    P3PDB_ASSIGN_OR_RETURN(auto records, durable_->InstalledPolicyRecords());
    for (const InstalledPolicyRecord& record : records) {
      P3PDB_ASSIGN_OR_RETURN(p3p::Policy policy,
                             p3p::PolicyFromText(record.text));
      Shard& shard = *shards_[ShardOf(policy.name)];
      std::lock_guard<std::mutex> lock(shard.install_mu);
      P3PDB_RETURN_IF_ERROR(ApplyAndPublish(shard, policy).status());
    }
    if (auto rf = durable_->InstalledReferenceFile(); rf.has_value()) {
      PublishDirectory(*rf);
    }
  }

  if (options_.enable_admin_endpoint) {
    AdminHttpServer::Handlers handlers;
    handlers.healthz_json = [this] { return RenderHealthzJson(); };
    handlers.metrics_text = [this] { return RenderMetricsText(); };
    handlers.metrics_json = [this] { return RenderMetricsJson(); };
    handlers.statements_json = [this](size_t top) {
      return RenderStatementStatsJson(top);
    };
    AdminHttpServer::Options admin_options;
    admin_options.host = options_.admin_host;
    admin_options.port = options_.admin_port;
    P3PDB_ASSIGN_OR_RETURN(
        admin_, AdminHttpServer::Start(std::move(handlers), admin_options));
  }
  return Status::OK();
}

size_t ShardedPolicyServer::ShardOf(std::string_view policy_name) const {
  return std::hash<std::string_view>{}(policy_name) % shards_.size();
}

Result<int64_t> ShardedPolicyServer::ApplyAndPublish(
    Shard& shard, const p3p::Policy& policy) {
  if (!shard.poisoned.ok()) return shard.poisoned;
  shard.op_log.push_back(policy);
  const size_t total = shard.op_base + shard.op_log.size();

  // Catch the spare up through the op it has not yet applied — usually just
  // the one appended above plus the op the previous install published
  // without waiting for this replica.
  Replica& spare = shard.replicas[1 - shard.published_idx];
  int64_t local_id = -1;
  while (spare.applied < total) {
    const p3p::Policy& op = shard.op_log[spare.applied - shard.op_base];
    Result<int64_t> installed = spare.server->InstallPolicy(op);
    if (!installed.ok()) {
      // The durable store (when present) already committed this op; a
      // replica that cannot apply it would serve a catalog disagreeing
      // with disk. Refuse the shard until a restart replays cleanly.
      shard.poisoned = installed.status();
      return installed.status();
    }
    local_id = installed.value();
    ++spare.applied;
  }

  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto snapshot = std::make_shared<const ShardSnapshot>(ShardSnapshot{
      spare.server, epoch, spare.server->policy_ids().size()});
  shard.published.Store(std::move(snapshot));
  shard.published_idx = 1 - shard.published_idx;
  shard.publishes.fetch_add(1, std::memory_order_relaxed);

  // Drop ops both replicas have applied; the deque retains only what the
  // now-spare (previously published) replica still owes.
  const size_t min_applied =
      std::min(shard.replicas[0].applied, shard.replicas[1].applied);
  while (shard.op_base < min_applied && !shard.op_log.empty()) {
    shard.op_log.pop_front();
    ++shard.op_base;
  }

  if (shard.policies_gauge != nullptr) {
    shard.policies_gauge->Set(
        static_cast<int64_t>(spare.server->policy_ids().size()));
  }
  if (shard.epoch_gauge != nullptr) {
    shard.epoch_gauge->Set(static_cast<int64_t>(epoch));
  }
  return local_id;
}

Result<int64_t> ShardedPolicyServer::InstallPolicy(const p3p::Policy& policy) {
  const size_t k = ShardOf(policy.name);
  Shard& shard = *shards_[k];
  std::lock_guard<std::mutex> lock(shard.install_mu);
  if (!shard.poisoned.ok()) return shard.poisoned;
  if (durable_ != nullptr) {
    // Durable first: by the time the policy is reachable through any
    // snapshot, its install has survived an fsync (group-committed with
    // whatever other shards are installing right now).
    P3PDB_RETURN_IF_ERROR(durable_->InstallPolicy(policy).status());
  }
  P3PDB_ASSIGN_OR_RETURN(int64_t local_id, ApplyAndPublish(shard, policy));
  if (installs_total_ != nullptr) installs_total_->Increment();
  return local_id * static_cast<int64_t>(shards_.size()) +
         static_cast<int64_t>(k);
}

void ShardedPolicyServer::PublishDirectory(const p3p::ReferenceFile& rf) {
  const uint64_t epoch = epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  auto snapshot = std::make_shared<const DirectorySnapshot>(
      DirectorySnapshot{rf, epoch});
  directory_.Store(std::move(snapshot));
}

Status ShardedPolicyServer::InstallReferenceFile(
    const p3p::ReferenceFile& rf) {
  std::lock_guard<std::mutex> lock(directory_install_mu_);
  if (durable_ != nullptr) {
    P3PDB_RETURN_IF_ERROR(durable_->InstallReferenceFile(rf));
  }
  PublishDirectory(rf);
  return Status::OK();
}

Result<CompiledPreference> ShardedPolicyServer::CompilePreference(
    const appel::AppelRuleset& ruleset) {
  // Compilation is catalog-independent (translation + fingerprint, no
  // prepared statements on this tier), so any replica can do it; shard 0's
  // published one is as good as any.
  auto snapshot = shards_[0]->published.Load();
  return snapshot->server->CompilePreference(ruleset);
}

Result<MatchResult> ShardedPolicyServer::MatchPolicyId(
    const CompiledPreference& pref, int64_t global_policy_id) {
  if (global_policy_id < 0) {
    return Status::NotFound("unknown policy id: " +
                            std::to_string(global_policy_id));
  }
  const int64_t n = static_cast<int64_t>(shards_.size());
  const size_t k = static_cast<size_t>(global_policy_id % n);
  auto snapshot = shards_[k]->published.Load();
  return MatchOnShard(k, *snapshot, pref, global_policy_id / n);
}

Result<MatchResult> ShardedPolicyServer::MatchResolved(
    const CompiledPreference& pref, std::string_view path, bool for_cookie) {
  auto directory = directory_.Load();
  if (directory == nullptr) {
    // Same contract as PolicyServer with no reference file installed.
    return Status::InvalidArgument("no reference file installed");
  }
  std::optional<std::string> about =
      for_cookie ? directory->rf.PolicyForCookie(path)
                 : directory->rf.PolicyForPath(path);
  std::optional<int64_t> local_id;
  size_t k = 0;
  std::shared_ptr<const ShardSnapshot> snapshot;
  if (about.has_value()) {
    k = ShardOf(AboutToPolicyName(*about));
    snapshot = shards_[k]->published.Load();
    local_id = snapshot->server->FindPolicyIdByAbout(*about);
  }
  if (!local_id.has_value()) {
    if (matches_total_ != nullptr) matches_total_->Increment();
    if (no_policy_total_ != nullptr) no_policy_total_->Increment();
    MatchResult miss;
    miss.behavior = kNoPolicyBehavior;
    miss.policy_found = false;
    return miss;
  }
  return MatchOnShard(k, *snapshot, pref, *local_id);
}

Result<MatchResult> ShardedPolicyServer::MatchOnShard(
    size_t k, const ShardSnapshot& snapshot, const CompiledPreference& pref,
    int64_t local_id) {
  Result<MatchResult> result = snapshot.server->MatchPolicyId(pref, local_id);
  if (matches_total_ != nullptr) matches_total_->Increment();
  if (shards_[k]->matches_total != nullptr) {
    shards_[k]->matches_total->Increment();
  }
  if (result.ok() && result.value().policy_id >= 0) {
    result.value().policy_id =
        result.value().policy_id * static_cast<int64_t>(shards_.size()) +
        static_cast<int64_t>(k);
  }
  return result;
}

Result<MatchResult> ShardedPolicyServer::MatchUri(
    const CompiledPreference& pref, std::string_view local_path) {
  return MatchResolved(pref, local_path, /*for_cookie=*/false);
}

Result<MatchResult> ShardedPolicyServer::MatchCookie(
    const CompiledPreference& pref, std::string_view cookie_path) {
  return MatchResolved(pref, cookie_path, /*for_cookie=*/true);
}

std::optional<int64_t> ShardedPolicyServer::FindPolicyIdByAbout(
    std::string_view about) const {
  const size_t k = ShardOf(AboutToPolicyName(about));
  auto snapshot = shards_[k]->published.Load();
  std::optional<int64_t> local_id = snapshot->server->FindPolicyIdByAbout(about);
  if (!local_id.has_value()) return std::nullopt;
  return *local_id * static_cast<int64_t>(shards_.size()) +
         static_cast<int64_t>(k);
}

size_t ShardedPolicyServer::ShardPolicyCount(size_t shard) const {
  return shards_[shard]->published.Load()->policies;
}

uint64_t ShardedPolicyServer::ShardPublishes(size_t shard) const {
  return shards_[shard]->publishes.load(std::memory_order_relaxed);
}

std::vector<int64_t> ShardedPolicyServer::GlobalPolicyIds() const {
  std::vector<int64_t> ids;
  const int64_t n = static_cast<int64_t>(shards_.size());
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    // install_mu keeps installs (which mutate the replica behind the
    // snapshot once it cycles to spare) out while we walk the id list.
    std::lock_guard<std::mutex> lock(shard.install_mu);
    auto snapshot = shard.published.Load();
    for (int64_t local_id : snapshot->server->policy_ids()) {
      ids.push_back(local_id * n + static_cast<int64_t>(k));
    }
  }
  return ids;
}

std::string ShardedPolicyServer::RenderHealthzJson() const {
  uint64_t matches = 0;
  size_t policies = 0;
  std::string shards_json;
  bool poisoned = false;
  for (size_t k = 0; k < shards_.size(); ++k) {
    Shard& shard = *shards_[k];
    auto snapshot = shard.published.Load();
    {
      std::lock_guard<std::mutex> lock(shard.install_mu);
      poisoned = poisoned || !shard.poisoned.ok();
    }
    policies += snapshot->policies;
    const uint64_t shard_matches =
        shard.matches_total != nullptr ? shard.matches_total->value() : 0;
    matches += shard_matches;
    if (k > 0) shards_json += ",";
    shards_json += "{\"shard\":" + std::to_string(k) +
                   ",\"epoch\":" + std::to_string(snapshot->epoch) +
                   ",\"policies\":" + std::to_string(snapshot->policies) +
                   ",\"publishes\":" +
                   std::to_string(
                       shard.publishes.load(std::memory_order_relaxed)) +
                   ",\"matches\":" + std::to_string(shard_matches) + "}";
  }
  std::string out = "{\"status\":\"";
  out += poisoned ? "poisoned" : "ok";
  out += "\",\"catalog_epoch\":" + std::to_string(catalog_epoch()) +
         ",\"policies\":" + std::to_string(policies) +
         ",\"matches\":" + std::to_string(matches) + ",\"shards\":[" +
         shards_json + "]}";
  return out;
}

std::string ShardedPolicyServer::RenderMetricsText() const {
  return metrics_.RenderText();
}

std::string ShardedPolicyServer::RenderMetricsJson() const {
  return metrics_.RenderJson();
}

std::string ShardedPolicyServer::RenderStatementStatsJson(size_t top) const {
  std::string out = "{";
  for (size_t k = 0; k < shards_.size(); ++k) {
    auto snapshot = shards_[k]->published.Load();
    if (k > 0) out += ",";
    out += "\"shard_" + std::to_string(k) +
           "\":" + snapshot->server->RenderStatementStatsJson(top);
  }
  out += "}";
  return out;
}

uint16_t ShardedPolicyServer::admin_port() const {
  return admin_ != nullptr ? admin_->port() : 0;
}

}  // namespace p3pdb::server
