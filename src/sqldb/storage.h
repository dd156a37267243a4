// StorageEngine: the disk-backed persistence layer under Database.
//
// Layout of the storage directory (Options::path):
//   meta                   two 64-byte slots, written alternately; the valid
//                          slot with the highest generation is authoritative
//   checkpoint.<gen>.db    image of the full catalog at generation <gen>,
//                          exactly meta's checkpoint_bytes long (absent while
//                          no checkpoint has been taken)
//   wal.<gen>.log          redo log of everything since checkpoint <gen>
//
// Runtime protocol: every table mutation appends a redo record to the WAL
// (via Table::TableObserver, so programmatic inserts, SQL DML, and index
// DDL all funnel through one hook); a commit record + fsync makes the
// transaction durable. Every commit stages its record and then waits for a
// group-commit fsync to cover it. Statements outside an explicit transaction
// commit implicitly. A checkpoint streams the whole catalog — including
// tombstoned slots, which is what keeps replayed row ids aligned with the
// log — into checkpoint.<gen+1>.db one 8 KiB page per write, creates an
// empty wal.<gen+1>.log, and then flips the meta slot; a crash anywhere in
// that sequence recovers from whichever (checkpoint, wal) pair the meta
// slot still names. Reopen = load checkpoint + replay the committed prefix
// of the WAL; an uncommitted or torn tail is cut off.
//
// Durability model: process-crash consistency. Writes are fsynced on
// commit, but directory entries are not separately synced, so the
// guarantees are exact for a killed process (what the fault harness
// exercises) and fsync-grade for media loss.

#ifndef P3PDB_SQLDB_STORAGE_H_
#define P3PDB_SQLDB_STORAGE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "sqldb/file_backend.h"
#include "sqldb/table.h"
#include "sqldb/wal.h"

namespace p3pdb::sqldb {

class Database;

struct StorageStats {
  uint64_t wal_records = 0;
  uint64_t wal_commits = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_bytes = 0;
  uint64_t checkpoints = 0;
  uint64_t recovered_txns = 0;
  uint64_t recovered_records = 0;
  bool recovered_torn_tail = false;
};

class StorageEngine : public TableObserver {
 public:
  struct Options {
    /// Directory holding meta/checkpoint/WAL files (created if absent).
    std::string path;
    /// fsync the WAL on every commit. Off trades durability of the last
    /// few transactions for speed (bench use).
    bool sync_on_commit = true;
    /// Auto-checkpoint once this many WAL bytes accumulate; 0 disables.
    uint64_t checkpoint_wal_bytes = 4ull << 20;
    /// Extra microseconds a group-commit leader waits before fsyncing, to
    /// let more committers stage behind it. 0 adds no latency; coalescing
    /// then comes only from commits staged while a previous fsync runs.
    uint64_t group_commit_window_us = 0;
    /// Backend factory; defaults to OpenPosixFile. The fault harness
    /// installs MakeFaultInjectingFactory here.
    FileBackendFactory backend_factory;
  };

  /// Opens (or creates) the storage directory and reads the meta block.
  /// Does not touch the Database yet — call RecoverInto next.
  static Result<std::unique_ptr<StorageEngine>> Open(Options options);

  ~StorageEngine() override = default;

  /// Loads the checkpoint image and replays the committed WAL prefix into
  /// `db` (which must be empty). Leaves the WAL positioned after the last
  /// valid record, ready for appends.
  Status RecoverInto(Database* db);

  /// True while RecoverInto is applying records; Database suppresses its
  /// own logging during replay and this engine ignores observer callbacks.
  bool replaying() const { return replaying_; }

  // TableObserver — row/index mutations arrive here from every path
  // (SQL DML, programmatic InsertRow, CREATE INDEX, shredder installs).
  void OnInsert(const Table& table, size_t row_id, const Row& row) override;
  void OnDelete(const Table& table, size_t row_id) override;
  void OnCreateIndex(const Table& table, const Index& index) override;

  // Catalog mutations, called by Database (not observable at Table level).
  void LogCreateTable(const TableSchema& schema);
  void LogDropTable(const std::string& name);

  /// Opens an explicit transaction: statement-level implicit commits are
  /// suspended until CommitStaged.
  Status Begin();
  /// Statement-boundary hook: commits the implicit transaction (stage, then
  /// WaitDurable) unless an explicit one is open. Empty transactions write
  /// nothing.
  Status CommitIfImplicit();

  /// Commit is two-phase, so callers can release their own locks before
  /// blocking on the disk: CommitStaged appends the explicit transaction's
  /// commit record (no fsync) and returns a durability ticket; WaitDurable
  /// blocks until that ticket's commit record is on disk, joining the
  /// group-commit fsync queue, where concurrent committers share one fsync.
  /// Ticket 0 means "already durable" (empty transaction, or sync_on_commit
  /// off) — WaitDurable(0) returns immediately.
  ///
  /// Staging (like every append) must be serialized by the caller; WaitDurable
  /// is safe from any number of threads concurrently.
  Result<uint64_t> CommitStaged();
  Status WaitDurable(uint64_t ticket);

  /// Serializes the catalog into a new checkpoint generation and truncates
  /// the WAL (by switching to a fresh one). No-op while a transaction is
  /// open.
  Status Checkpoint(const Database& db);
  /// Checkpoint when the WAL has outgrown Options::checkpoint_wal_bytes.
  Status MaybeCheckpoint(const Database& db);

  StorageStats stats() const;

 private:
  explicit StorageEngine(Options options) : options_(std::move(options)) {}

  std::string FilePath(const std::string& name) const;
  Result<std::unique_ptr<FileBackend>> OpenFile(const std::string& name);
  Status ReadMeta();
  Status WriteMeta();
  Status EnsureTxn();
  /// Appends the commit record and issues a durability ticket (0 when there
  /// is nothing to sync). The one commit-record writer, shared by
  /// CommitStaged and CommitIfImplicit.
  Result<uint64_t> StageCurrentTxn();
  Status FirstError() const;
  void RecordError(const Status& st);
  Status AppendRecord(WalRecordType type, std::vector<uint8_t> payload);
  Status ApplyRecord(Database* db, const WalRecord& record);
  Status LoadCheckpoint(Database* db);

  Options options_;
  std::unique_ptr<FileBackend> meta_file_;
  std::unique_ptr<FileBackend> wal_file_;
  std::unique_ptr<WalWriter> wal_writer_;

  uint64_t generation_ = 0;        // live checkpoint/WAL generation
  uint64_t checkpoint_bytes_ = 0;  // byte length of the live checkpoint image
  uint64_t next_txn_id_ = 1;
  uint64_t current_txn_id_ = 0;    // 0 = no transaction open
  uint64_t pending_ops_ = 0;       // records appended in the current txn
  bool explicit_txn_ = false;
  bool replaying_ = false;

  /// First WAL append/fsync failure, sticky. Guarded by err_mu_ because a
  /// group-commit leader can record an fsync failure while the (externally
  /// serialized) append path checks for one.
  mutable std::mutex err_mu_;
  Status io_error_ = Status::OK();

  /// Group-commit state (guarded by gc_mu_). Tickets are a monotonic count
  /// of staged commit records — deliberately not byte offsets, so they stay
  /// valid across the WAL generation switch at checkpoint. A checkpoint
  /// implicitly makes every staged commit durable (the image is fsynced
  /// before the meta flip), so it advances synced_seq_ to commit_seq_.
  mutable std::mutex gc_mu_;
  std::condition_variable gc_cv_;
  uint64_t commit_seq_ = 0;   // tickets issued
  uint64_t synced_seq_ = 0;   // tickets durable
  bool sync_in_progress_ = false;

  StorageStats stats_;
  uint64_t wal_bytes_since_checkpoint_ = 0;
};

}  // namespace p3pdb::sqldb

#endif  // P3PDB_SQLDB_STORAGE_H_
