// ShardedPolicyServer: the scale-out serving tier over N PolicyServer
// shards, built for the deployment shape the paper's server-centric
// architecture implies — one shared matching service fielding match traffic
// from many clients while sites keep (re)installing policies.
//
// Why not one PolicyServer? Its single shared_mutex means every install
// stalls the entire match fleet for the install's full duration (shred +
// WAL fsync). Here, policy state is partitioned by policy-name hash into N
// catalog shards, and each shard serves matches from an immutable published
// snapshot that installs swap RCU-style:
//
//   - Each shard owns two in-memory PolicyServer replicas (A/B) and a short
//     per-shard op log. At any moment one replica is *published* — reachable
//     only through an EpochPtr<ShardSnapshot> (see epoch_ptr.h: a two-slot
//     epoch-pinned cell; readers are lock-free, writers drain the old
//     slot's nanosecond-scale reader pins before reclaiming) — and the
//     other is the *spare*.
//   - An install (serialized per shard by install_mu) first commits to the
//     durable store, then catches the spare up from the op log and publishes
//     it with a single epoch-pinned snapshot store. The previously published
//     replica becomes the spare; it is caught up lazily by the *next*
//     install, so the installer never takes an exclusive lock a match could
//     be waiting behind.
//   - A match loads the snapshot pointer (one pinned shared_ptr copy; the
//     refcount is the reclamation scheme — a replica's snapshot stays alive
//     exactly as long as some match still holds it) and evaluates against
//     that replica. Everything the match touches — the replica's catalog,
//     its MatchCache, its statement stats — is per-shard, so matches on
//     different shards share no lock at all, and matches on the same shard
//     share only that replica's (never exclusively held) shared_mutex and
//     its internally sharded cache.
//
// Epoch publication: every snapshot carries the tier-wide epoch it was
// published at. A match resolves its whole subject against one snapshot, so
// it observes the catalog as-of one epoch — either entirely before an
// install or entirely after, never a half-installed policy (the torn-epoch
// test in serving_tier_test.cc hammers exactly this).
//
// Ids: a shard's replicas assign local policy ids deterministically (both
// replay the identical op sequence), and the tier exposes
// global = local * num_shards + shard, so routing a global id back to its
// shard is a modulo, no map lookup on the hot path.
//
// Durability: one disk-backed PolicyServer (the *durable store*, engine
// kNativeAppel — catalog rows only, no shredding) is the system of record,
// opened with WAL group commit so concurrent installs to different shards
// coalesce their fsyncs. Create() on an existing directory replays the
// PolicyCatalog in install order through the same routing, reproducing the
// shard contents and global ids exactly.

#ifndef P3PDB_SERVER_SHARDED_SERVER_H_
#define P3PDB_SERVER_SHARDED_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"
#include "p3p/policy.h"
#include "p3p/reference_file.h"
#include "server/epoch_ptr.h"
#include "server/match_result.h"
#include "server/policy_server.h"

namespace p3pdb::server {

class ShardedPolicyServer {
 public:
  struct Options {
    /// Number of catalog shards (policy-name hash partitions).
    size_t shards = 4;
    /// Engine of every replica. Any engine works: every match path is
    /// read-only, so replicas only ever take their lock shared to match.
    EngineKind engine = EngineKind::kSql;
    bool enable_planner = sqldb::PlannerEnabledFromEnv();
    bool enable_vectorized_executor = sqldb::VectorizeEnabledFromEnv();
    bool enable_cost_model = sqldb::CostModelEnabledFromEnv();
    /// Per-replica match caches (so caching, like matching, is per-shard).
    bool enable_match_cache = true;
    size_t match_cache_shards = 4;
    size_t match_cache_capacity_per_shard = 1024;
    /// Per-replica statement-stats registries (per-shard pg_stat_statements;
    /// served aggregated at /statements). Off by default for lean replicas.
    bool enable_statement_stats = false;
    /// Tier gauges/counters (p3p_shard_*) in the tier registry.
    bool collect_metrics = true;
    /// Directory for the durable store. Empty = no durability (bench and
    /// test use); non-empty opens or recovers it at Create.
    std::string storage_path;
    bool storage_sync_on_commit = true;
    uint64_t storage_checkpoint_wal_bytes = 4ull << 20;
    bool storage_checkpoint_on_close = true;
    /// The durable store's installs release their lock before the WAL
    /// fsync (PolicyServer::Options::storage_group_commit) — the default
    /// here, unlike the single server: concurrent installs to different
    /// shards are exactly the traffic whose fsyncs coalesce.
    bool storage_group_commit = true;
    uint64_t storage_group_commit_window_us = 0;
    /// Serve /healthz, /metrics, /metrics.json, /statements over the
    /// embedded admin endpoint (same URL map as PolicyServer's).
    bool enable_admin_endpoint = false;
    std::string admin_host = "127.0.0.1";
    uint16_t admin_port = 0;
  };

  static Result<std::unique_ptr<ShardedPolicyServer>> Create(Options options);

  ~ShardedPolicyServer();
  ShardedPolicyServer(const ShardedPolicyServer&) = delete;
  ShardedPolicyServer& operator=(const ShardedPolicyServer&) = delete;

  /// Installs (a new version of) a policy into its name's shard. Returns
  /// the global policy id. Durable-store commit first, then epoch
  /// publication — a policy is never served before it is durable.
  Result<int64_t> InstallPolicy(const p3p::Policy& policy);

  /// Installs the site's reference file (tier-wide: URI resolution is a
  /// directory concern, not a shard concern). Published atomically as a new
  /// directory snapshot.
  Status InstallReferenceFile(const p3p::ReferenceFile& rf);

  /// Compiles a preference once for the whole tier. The compiled form is
  /// database-independent for every supported engine (SQL text, XQuery
  /// ASTs, or APPEL text), so one compile serves matches on every shard.
  Result<CompiledPreference> CompilePreference(
      const appel::AppelRuleset& ruleset);

  /// Evaluates against one installed policy by global id. Hot path: one
  /// atomic snapshot load + the replica's shared-mode match; no tier lock,
  /// no exclusive lock anywhere.
  Result<MatchResult> MatchPolicyId(const CompiledPreference& pref,
                                    int64_t global_policy_id);

  /// Full pipeline: directory snapshot resolves the URI to a policy name,
  /// the name's shard snapshot resolves and evaluates. One snapshot each,
  /// so the observation is torn-free at both levels.
  Result<MatchResult> MatchUri(const CompiledPreference& pref,
                               std::string_view local_path);

  /// Like MatchUri via the reference file's COOKIE-* patterns.
  Result<MatchResult> MatchCookie(const CompiledPreference& pref,
                                  std::string_view cookie_path);

  /// Resolves a POLICY-REF `about` to the latest global policy id.
  std::optional<int64_t> FindPolicyIdByAbout(std::string_view about) const;

  size_t shard_count() const { return shards_.size(); }
  /// Installed policies in one shard's published snapshot.
  size_t ShardPolicyCount(size_t shard) const;
  /// Snapshot publications (installs) a shard has performed.
  uint64_t ShardPublishes(size_t shard) const;
  /// Tier-wide publication epoch: bumped by every shard publish and every
  /// reference-file install.
  uint64_t catalog_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Installed global ids, grouped by shard and in install order within
  /// each shard (takes no tier lock beyond each shard's install_mu).
  std::vector<int64_t> GlobalPolicyIds() const;

  // -- Observability -------------------------------------------------------

  /// Tier health: epoch plus per-shard policy counts, publish counts, and
  /// match tallies — what /healthz serves, so a stuck shard is visible.
  std::string RenderHealthzJson() const;

  std::string RenderMetricsText() const;
  std::string RenderMetricsJson() const;
  /// JSON object mapping "shard_<k>" to that replica's statement-stats
  /// array ("{}" sans statement stats).
  std::string RenderStatementStatsJson(size_t top) const;

  obs::MetricsRegistry* metrics() { return &metrics_; }
  bool admin_endpoint_running() const { return admin_ != nullptr; }
  uint16_t admin_port() const;

  /// The durable store (nullptr without storage_path); tests inspect its
  /// storage stats to count coalesced fsyncs.
  PolicyServer* durable_store() { return durable_.get(); }

  const Options& options() const { return options_; }

 private:
  /// What a match holds while it runs: the published replica plus the
  /// publication metadata. Immutable after construction; reclaimed by the
  /// shared_ptr refcount when the last in-flight match drops it.
  struct ShardSnapshot {
    std::shared_ptr<PolicyServer> server;
    uint64_t epoch = 0;
    size_t policies = 0;
  };

  /// URI/cookie resolution state, tier-wide, swapped whole on reference
  /// install. Matches resolve against one directory snapshot, never a
  /// half-replaced reference file.
  struct DirectorySnapshot {
    p3p::ReferenceFile rf;
    uint64_t epoch = 0;
  };

  struct Replica {
    std::shared_ptr<PolicyServer> server;
    size_t applied = 0;  // absolute op index this replica has installed up to
  };

  struct Shard {
    /// Serializes installs to this shard (matches never take it).
    std::mutex install_mu;
    Replica replicas[2];
    int published_idx = 0;  // which replica the current snapshot wraps
    /// Install-order op log; replicas consume it to catch up. Pruned to the
    /// suffix some replica still needs, so it stays O(1) entries.
    std::deque<p3p::Policy> op_log;
    size_t op_base = 0;  // absolute index of op_log.front()
    /// Sticky failure: a replica that diverged mid-install (durable store
    /// has the op, the replica does not) poisons the shard rather than
    /// serving a catalog that disagrees with disk.
    Status poisoned = Status::OK();
    EpochPtr<ShardSnapshot> published;
    std::atomic<uint64_t> publishes{0};
    // Tier instruments (null when collect_metrics is off).
    obs::Counter* matches_total = nullptr;
    obs::Gauge* policies_gauge = nullptr;
    obs::Gauge* epoch_gauge = nullptr;
  };

  explicit ShardedPolicyServer(Options options);

  Status Init();
  Result<std::shared_ptr<PolicyServer>> MakeReplica() const;
  size_t ShardOf(std::string_view policy_name) const;
  /// The install path shared by InstallPolicy and recovery replay: assumes
  /// shard.install_mu is held and the durable store (if any) already has
  /// the op. Appends to the op log, catches the spare up, publishes it.
  Result<int64_t> ApplyAndPublish(Shard& shard, const p3p::Policy& policy);
  void PublishDirectory(const p3p::ReferenceFile& rf);
  Result<MatchResult> MatchResolved(const CompiledPreference& pref,
                                    std::string_view path, bool for_cookie);
  /// The shard-match tail shared by MatchPolicyId and MatchResolved: the
  /// replica match on shard `k`'s pinned snapshot, the tier tallies, and
  /// the local -> global (`local * shards + k`) id remap of the result.
  Result<MatchResult> MatchOnShard(size_t k, const ShardSnapshot& snapshot,
                                   const CompiledPreference& pref,
                                   int64_t local_id);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Serializes reference-file installs (so durable order and published
  /// order agree); directory reads are lock-free snapshot loads.
  mutable std::mutex directory_install_mu_;
  EpochPtr<DirectorySnapshot> directory_;
  std::atomic<uint64_t> epoch_{1};
  std::unique_ptr<PolicyServer> durable_;
  obs::MetricsRegistry metrics_;
  obs::Counter* matches_total_ = nullptr;
  obs::Counter* no_policy_total_ = nullptr;
  obs::Counter* installs_total_ = nullptr;
  std::unique_ptr<AdminHttpServer> admin_;
};

}  // namespace p3pdb::server

#endif  // P3PDB_SERVER_SHARDED_SERVER_H_
