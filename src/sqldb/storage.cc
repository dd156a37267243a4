#include "sqldb/storage.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>

#include "sqldb/database.h"
#include "sqldb/storage_serde.h"

namespace p3pdb::sqldb {

namespace {

constexpr uint32_t kMetaMagic = 0x50334442;  // "P3DB"
constexpr uint32_t kMetaVersion = 1;
constexpr size_t kMetaSlotSize = 64;
constexpr uint32_t kCheckpointMagic = 0x5033434B;  // "P3CK"

// ---- WAL payload encodings -------------------------------------------------

std::vector<uint8_t> EncodeCreateTable(const TableSchema& schema) {
  ByteWriter w;
  w.PutSchema(schema);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeDropTable(const std::string& name) {
  ByteWriter w;
  w.PutString(name);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeCreateIndex(const Table& table,
                                       const Index& index) {
  ByteWriter w;
  w.PutString(table.schema().name());
  w.PutString(index.name());
  w.PutU32(static_cast<uint32_t>(index.column_ordinals().size()));
  for (size_t ord : index.column_ordinals()) {
    w.PutString(table.schema().columns()[ord].name);
  }
  w.PutU8(index.unique() ? 1 : 0);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeInsert(const Table& table, size_t row_id,
                                  const Row& row) {
  ByteWriter w;
  w.PutString(table.schema().name());
  w.PutU64(row_id);
  w.PutRow(row);
  return std::move(w.bytes);
}

std::vector<uint8_t> EncodeDelete(const Table& table, size_t row_id) {
  ByteWriter w;
  w.PutString(table.schema().name());
  w.PutU64(row_id);
  return std::move(w.bytes);
}

// ---- Checkpoint streams ----------------------------------------------------

// Checkpoint I/O goes through one page-sized buffer: the writer hands the
// file one WriteAt per full page (and one for the tail), so a crash tears
// the image at page granularity, and neither side ever holds the whole
// image in memory.
constexpr size_t kPageSize = 8192;

// Streams a checkpoint image to its file front to back.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(FileBackend* file) : file_(file) {
    page_.reserve(kPageSize);
  }

  Status Append(const ByteWriter& w) {
    const uint8_t* data = w.bytes.data();
    size_t len = w.bytes.size();
    while (len > 0) {
      const size_t n = std::min(len, kPageSize - page_.size());
      page_.insert(page_.end(), data, data + n);
      data += n;
      len -= n;
      if (page_.size() == kPageSize) P3PDB_RETURN_IF_ERROR(Flush());
    }
    return Status::OK();
  }

  /// Writes the partial last page, if any. The image ends exactly at
  /// total_bytes(); nothing is padded.
  Status Finish() { return page_.empty() ? Status::OK() : Flush(); }

  uint64_t total_bytes() const { return offset_ + page_.size(); }

 private:
  Status Flush() {
    P3PDB_RETURN_IF_ERROR(file_->WriteAt(offset_, page_.data(), page_.size()));
    offset_ += page_.size();
    page_.clear();
    return Status::OK();
  }

  FileBackend* file_;
  std::vector<uint8_t> page_;
  uint64_t offset_ = 0;  // file bytes written so far
};

// Reads the first `total_bytes` of a checkpoint image front to back. Bytes
// past that length (stores written before this reader zero-padded the last
// page) are never consumed.
class CheckpointReader {
 public:
  CheckpointReader(FileBackend* file, uint64_t total_bytes)
      : file_(file), remaining_(total_bytes), page_(kPageSize) {}

  Status Read(uint8_t* out, size_t len) {
    if (len > remaining_) {
      return Status::ParseError("checkpoint image: read past end");
    }
    while (len > 0) {
      if (page_pos_ == page_len_) P3PDB_RETURN_IF_ERROR(NextPage());
      const size_t n = std::min(len, page_len_ - page_pos_);
      std::memcpy(out, page_.data() + page_pos_, n);
      page_pos_ += n;
      out += n;
      len -= n;
      remaining_ -= n;
    }
    return Status::OK();
  }

  /// Reads a u32 length prefix and that many bytes. The length comes off
  /// disk, so it is checked against the image's remaining bytes before
  /// anything is allocated for it.
  Result<std::vector<uint8_t>> ReadChunk() {
    P3PDB_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (len > remaining_) {
      return Status::ParseError("checkpoint image: chunk of " +
                                std::to_string(len) + " bytes with " +
                                std::to_string(remaining_) + " left");
    }
    std::vector<uint8_t> buf(len);
    P3PDB_RETURN_IF_ERROR(Read(buf.data(), len));
    return buf;
  }

  Result<uint32_t> ReadU32() {
    uint8_t raw[4];
    P3PDB_RETURN_IF_ERROR(Read(raw, 4));
    return ByteReader(raw, 4).GetU32();
  }

  Result<uint64_t> ReadU64() {
    uint8_t raw[8];
    P3PDB_RETURN_IF_ERROR(Read(raw, 8));
    return ByteReader(raw, 8).GetU64();
  }

 private:
  Status NextPage() {
    size_t got = 0;
    P3PDB_RETURN_IF_ERROR(
        file_->ReadAt(offset_, page_.data(), kPageSize, &got));
    if (got == 0) {
      return Status::ParseError("checkpoint image: file ends before " +
                                std::to_string(remaining_) + " more bytes");
    }
    offset_ += got;
    page_pos_ = 0;
    page_len_ = got;
    return Status::OK();
  }

  FileBackend* file_;
  uint64_t remaining_;  // image bytes not yet returned by Read
  std::vector<uint8_t> page_;
  size_t page_pos_ = 0;
  size_t page_len_ = 0;
  uint64_t offset_ = 0;  // file offset of the next page
};

bool IsImplicitPkIndex(const Table& table, const Index& index) {
  return index.name() == "pk_" + table.schema().name();
}

}  // namespace

// ---- Open / meta -----------------------------------------------------------

Result<std::unique_ptr<StorageEngine>> StorageEngine::Open(Options options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("storage path is empty");
  }
  if (!options.backend_factory) {
    options.backend_factory = [](const std::string& path) {
      return OpenPosixFile(path);
    };
  }
  std::error_code ec;
  std::filesystem::create_directories(options.path, ec);
  if (ec) {
    return Status::Internal("storage mkdir '" + options.path +
                            "': " + ec.message());
  }
  std::unique_ptr<StorageEngine> engine(new StorageEngine(std::move(options)));
  P3PDB_ASSIGN_OR_RETURN(engine->meta_file_, engine->OpenFile("meta"));
  P3PDB_RETURN_IF_ERROR(engine->ReadMeta());
  return engine;
}

std::string StorageEngine::FilePath(const std::string& name) const {
  return options_.path + "/" + name;
}

Result<std::unique_ptr<FileBackend>> StorageEngine::OpenFile(
    const std::string& name) {
  return options_.backend_factory(FilePath(name));
}

namespace {

// One meta slot: magic, version, generation, checkpoint byte length, and a
// checksum over the lot. 64 bytes, zero-padded.
std::vector<uint8_t> EncodeMetaSlot(uint64_t generation,
                                    uint64_t checkpoint_bytes) {
  ByteWriter w;
  w.PutU32(kMetaMagic);
  w.PutU32(kMetaVersion);
  w.PutU64(generation);
  w.PutU64(checkpoint_bytes);
  w.PutU64(StorageChecksum(w.bytes.data(), w.bytes.size()));
  w.bytes.resize(kMetaSlotSize, 0);
  return std::move(w.bytes);
}

// Returns true and fills the outputs when the slot decodes and checksums.
bool DecodeMetaSlot(const uint8_t* data, uint64_t* generation,
                    uint64_t* checkpoint_bytes) {
  ByteReader r(data, kMetaSlotSize);
  auto magic = r.GetU32();
  auto version = r.GetU32();
  auto gen = r.GetU64();
  auto bytes = r.GetU64();
  auto sum = r.GetU64();
  if (!magic.ok() || !version.ok() || !gen.ok() || !bytes.ok() || !sum.ok()) {
    return false;
  }
  if (magic.value() != kMetaMagic || version.value() != kMetaVersion) {
    return false;
  }
  if (StorageChecksum(data, 4 + 4 + 8 + 8) != sum.value()) return false;
  *generation = gen.value();
  *checkpoint_bytes = bytes.value();
  return true;
}

}  // namespace

Status StorageEngine::ReadMeta() {
  uint8_t slots[2 * kMetaSlotSize];
  size_t got = 0;
  P3PDB_RETURN_IF_ERROR(
      meta_file_->ReadAt(0, slots, sizeof(slots), &got));
  std::memset(slots + got, 0, sizeof(slots) - got);

  uint64_t best_gen = 0, best_bytes = 0;
  bool found = false;
  for (int slot = 0; slot < 2; ++slot) {
    uint64_t gen = 0, bytes = 0;
    if (DecodeMetaSlot(slots + slot * kMetaSlotSize, &gen, &bytes) &&
        (!found || gen > best_gen)) {
      best_gen = gen;
      best_bytes = bytes;
      found = true;
    }
  }
  if (!found) {
    // No valid slot. Either the directory is fresh (empty meta file) or the
    // very first meta write was torn by a crash — the initial write is the
    // creation commit point, and a checkpoint flip always leaves the
    // previous generation's slot intact, so "no valid slot" can only mean
    // the database was never successfully created. Reinitialize, clearing
    // any torn bytes first so they can never decode as a slot later.
    if (got != 0) {
      P3PDB_RETURN_IF_ERROR(meta_file_->Truncate(0));
    }
    generation_ = 1;
    checkpoint_bytes_ = 0;
    P3PDB_RETURN_IF_ERROR(WriteMeta());
    P3PDB_RETURN_IF_ERROR(meta_file_->Sync());
  } else {
    generation_ = best_gen;
    checkpoint_bytes_ = best_bytes;
  }
  P3PDB_ASSIGN_OR_RETURN(
      wal_file_, OpenFile("wal." + std::to_string(generation_) + ".log"));
  return Status::OK();
}

Status StorageEngine::WriteMeta() {
  std::vector<uint8_t> slot = EncodeMetaSlot(generation_, checkpoint_bytes_);
  const uint64_t offset = (generation_ % 2) * kMetaSlotSize;
  return meta_file_->WriteAt(offset, slot.data(), slot.size());
}

// ---- Recovery --------------------------------------------------------------

Status StorageEngine::LoadCheckpoint(Database* db) {
  if (checkpoint_bytes_ == 0) return Status::OK();
  P3PDB_ASSIGN_OR_RETURN(
      std::unique_ptr<FileBackend> file,
      OpenFile("checkpoint." + std::to_string(generation_) + ".db"));
  CheckpointReader reader(file.get(), checkpoint_bytes_);

  P3PDB_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kCheckpointMagic) {
    return Status::ParseError("checkpoint image: bad magic");
  }
  P3PDB_ASSIGN_OR_RETURN(uint32_t table_count, reader.ReadU32());
  for (uint32_t t = 0; t < table_count; ++t) {
    // Each table section is a length-prefixed header blob (schema + index
    // defs) followed by length-prefixed slot blobs.
    P3PDB_ASSIGN_OR_RETURN(std::vector<uint8_t> header, reader.ReadChunk());
    ByteReader hr(header.data(), header.size());
    P3PDB_ASSIGN_OR_RETURN(TableSchema schema, hr.GetSchema());
    Table* table = db->RestoreTable(std::move(schema));
    if (table == nullptr) {
      return Status::Internal("checkpoint image: duplicate table");
    }
    P3PDB_ASSIGN_OR_RETURN(uint32_t index_count, hr.GetU32());
    for (uint32_t i = 0; i < index_count; ++i) {
      P3PDB_ASSIGN_OR_RETURN(std::string index_name, hr.GetString());
      P3PDB_ASSIGN_OR_RETURN(uint32_t ncols, hr.GetU32());
      std::vector<std::string> cols;
      for (uint32_t c = 0; c < ncols; ++c) {
        P3PDB_ASSIGN_OR_RETURN(std::string col, hr.GetString());
        cols.push_back(std::move(col));
      }
      P3PDB_ASSIGN_OR_RETURN(uint8_t unique, hr.GetU8());
      Status st = table->CreateIndex(index_name, cols, unique != 0);
      // The implicit PK index already exists; a name collision with it is
      // not corruption.
      if (!st.ok() && st.code() != StatusCode::kAlreadyExists) return st;
    }
    P3PDB_ASSIGN_OR_RETURN(uint64_t slot_count, reader.ReadU64());
    for (uint64_t s = 0; s < slot_count; ++s) {
      P3PDB_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, reader.ReadChunk());
      ByteReader sr(blob.data(), blob.size());
      P3PDB_ASSIGN_OR_RETURN(uint8_t live, sr.GetU8());
      if (live != 0) {
        P3PDB_ASSIGN_OR_RETURN(Row row, sr.GetRow());
        P3PDB_RETURN_IF_ERROR(table->RestoreSlot(std::move(row), true));
      } else {
        // Tombstone: a placeholder row keeps the slot array aligned so
        // WAL row ids land where they did in the original run.
        P3PDB_RETURN_IF_ERROR(
            table->RestoreSlot(Row(table->schema().ColumnCount()), false));
      }
    }
  }
  return Status::OK();
}

Status StorageEngine::ApplyRecord(Database* db, const WalRecord& record) {
  ByteReader r(record.payload.data(), record.payload.size());
  switch (record.type) {
    case WalRecordType::kCommit:
      return Status::OK();
    case WalRecordType::kCreateTable: {
      P3PDB_ASSIGN_OR_RETURN(TableSchema schema, r.GetSchema());
      if (db->RestoreTable(std::move(schema)) == nullptr) {
        return Status::Internal("WAL replay: duplicate CREATE TABLE");
      }
      return Status::OK();
    }
    case WalRecordType::kDropTable: {
      P3PDB_ASSIGN_OR_RETURN(std::string name, r.GetString());
      return db->DropTable(name, /*if_exists=*/false);
    }
    case WalRecordType::kCreateIndex: {
      P3PDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      P3PDB_ASSIGN_OR_RETURN(std::string index_name, r.GetString());
      P3PDB_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
      std::vector<std::string> cols;
      for (uint32_t i = 0; i < ncols; ++i) {
        P3PDB_ASSIGN_OR_RETURN(std::string col, r.GetString());
        cols.push_back(std::move(col));
      }
      P3PDB_ASSIGN_OR_RETURN(uint8_t unique, r.GetU8());
      Table* table = db->GetMutableTable(table_name);
      if (table == nullptr) {
        return Status::Internal("WAL replay: CREATE INDEX on missing table '" +
                                table_name + "'");
      }
      return table->CreateIndex(index_name, cols, unique != 0);
    }
    case WalRecordType::kInsert: {
      P3PDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      P3PDB_ASSIGN_OR_RETURN(uint64_t row_id, r.GetU64());
      P3PDB_ASSIGN_OR_RETURN(Row row, r.GetRow());
      Table* table = db->GetMutableTable(table_name);
      if (table == nullptr) {
        return Status::Internal("WAL replay: INSERT into missing table '" +
                                table_name + "'");
      }
      if (table->SlotCount() != row_id) {
        // Replay must reproduce the original row ids exactly; drift means
        // the log and checkpoint disagree about slot layout.
        return Status::Internal(
            "WAL replay: row id drift in '" + table_name + "' (expected " +
            std::to_string(row_id) + ", next slot is " +
            std::to_string(table->SlotCount()) + ")");
      }
      return table->Insert(std::move(row));
    }
    case WalRecordType::kDelete: {
      P3PDB_ASSIGN_OR_RETURN(std::string table_name, r.GetString());
      P3PDB_ASSIGN_OR_RETURN(uint64_t row_id, r.GetU64());
      Table* table = db->GetMutableTable(table_name);
      if (table == nullptr) {
        return Status::Internal("WAL replay: DELETE from missing table '" +
                                table_name + "'");
      }
      table->Delete(row_id);
      return Status::OK();
    }
  }
  return Status::Internal("WAL replay: unknown record type");
}

Status StorageEngine::RecoverInto(Database* db) {
  replaying_ = true;
  Status st = [&]() -> Status {
    P3PDB_RETURN_IF_ERROR(LoadCheckpoint(db));
    P3PDB_ASSIGN_OR_RETURN(WalScan scan, ScanWal(wal_file_.get()));
    stats_.recovered_torn_tail = scan.truncated_tail;

    // Pass 1: which transactions reached their commit record?
    std::vector<uint64_t> committed;
    for (const WalRecord& record : scan.records) {
      if (record.type == WalRecordType::kCommit) {
        committed.push_back(record.txn_id);
      }
      if (record.txn_id >= next_txn_id_) next_txn_id_ = record.txn_id + 1;
    }
    auto is_committed = [&committed](uint64_t txn_id) {
      for (uint64_t id : committed) {
        if (id == txn_id) return true;
      }
      return false;
    };

    // Pass 2: redo the committed records in log order.
    for (const WalRecord& record : scan.records) {
      if (record.type == WalRecordType::kCommit) continue;
      if (!is_committed(record.txn_id)) continue;
      P3PDB_RETURN_IF_ERROR(ApplyRecord(db, record));
      ++stats_.recovered_records;
    }
    stats_.recovered_txns = committed.size();

    // Appends resume over the torn/uncommitted tail.
    wal_writer_ =
        std::make_unique<WalWriter>(wal_file_.get(), scan.valid_end_offset);
    wal_bytes_since_checkpoint_ = scan.valid_end_offset;
    return Status::OK();
  }();
  replaying_ = false;
  return st;
}

// ---- Logging hooks ---------------------------------------------------------

Status StorageEngine::FirstError() const {
  std::lock_guard<std::mutex> lock(err_mu_);
  return io_error_;
}

void StorageEngine::RecordError(const Status& st) {
  std::lock_guard<std::mutex> lock(err_mu_);
  if (io_error_.ok()) io_error_ = st;
}

Status StorageEngine::EnsureTxn() {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (current_txn_id_ == 0) {
    current_txn_id_ = next_txn_id_++;
    pending_ops_ = 0;
  }
  return Status::OK();
}

Status StorageEngine::AppendRecord(WalRecordType type,
                                   std::vector<uint8_t> payload) {
  P3PDB_RETURN_IF_ERROR(EnsureTxn());
  WalRecord record;
  record.txn_id = current_txn_id_;
  record.type = type;
  record.payload = std::move(payload);
  Status st = wal_writer_->Append(record);
  if (!st.ok()) {
    RecordError(st);
    return st;
  }
  ++pending_ops_;
  ++stats_.wal_records;
  return Status::OK();
}

void StorageEngine::OnInsert(const Table& table, size_t row_id,
                             const Row& row) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kInsert, EncodeInsert(table, row_id, row));
}

void StorageEngine::OnDelete(const Table& table, size_t row_id) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kDelete, EncodeDelete(table, row_id));
}

void StorageEngine::OnCreateIndex(const Table& table, const Index& index) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kCreateIndex,
                     EncodeCreateIndex(table, index));
}

void StorageEngine::LogCreateTable(const TableSchema& schema) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kCreateTable, EncodeCreateTable(schema));
}

void StorageEngine::LogDropTable(const std::string& name) {
  if (replaying_) return;
  (void)AppendRecord(WalRecordType::kDropTable, EncodeDropTable(name));
}

// ---- Commit ----------------------------------------------------------------

Status StorageEngine::Begin() {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (explicit_txn_) {
    return Status::Internal("nested explicit transaction");
  }
  explicit_txn_ = true;
  return Status::OK();
}

Status StorageEngine::CommitIfImplicit() {
  if (explicit_txn_) return Status::OK();
  P3PDB_ASSIGN_OR_RETURN(uint64_t ticket, StageCurrentTxn());
  return WaitDurable(ticket);
}

Result<uint64_t> StorageEngine::StageCurrentTxn() {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (current_txn_id_ == 0 || pending_ops_ == 0) {
    current_txn_id_ = 0;  // an empty transaction writes nothing
    return 0;
  }
  WalRecord commit;
  commit.txn_id = current_txn_id_;
  commit.type = WalRecordType::kCommit;
  Status st = wal_writer_->Append(commit);
  if (!st.ok()) {
    RecordError(st);
    return st;
  }
  ++stats_.wal_records;
  ++stats_.wal_commits;
  current_txn_id_ = 0;
  pending_ops_ = 0;
  if (!options_.sync_on_commit) return 0;  // durability off: nothing to wait on
  // The ticket is issued after the append (still under the caller's append
  // serialization), so every ticket <= commit_seq_ has its commit record
  // fully written — a leader that fsyncs up to commit_seq_ covers them all.
  std::lock_guard<std::mutex> lock(gc_mu_);
  return ++commit_seq_;
}

Result<uint64_t> StorageEngine::CommitStaged() {
  if (!explicit_txn_) {
    return Status::Internal("COMMIT without an open transaction");
  }
  explicit_txn_ = false;
  return StageCurrentTxn();
}

Status StorageEngine::WaitDurable(uint64_t ticket) {
  if (ticket == 0) return Status::OK();
  std::unique_lock<std::mutex> lock(gc_mu_);
  for (;;) {
    if (synced_seq_ >= ticket) return Status::OK();
    {
      std::lock_guard<std::mutex> err_lock(err_mu_);
      if (!io_error_.ok()) return io_error_;
    }
    if (!sync_in_progress_) break;  // no leader active: become one
    gc_cv_.wait(lock);
  }
  sync_in_progress_ = true;
  if (options_.group_commit_window_us > 0) {
    // Hold the leader role (but not the lock) briefly so more committers
    // can stage behind this fsync. Spurious wakeups only shorten the wait.
    gc_cv_.wait_for(
        lock, std::chrono::microseconds(options_.group_commit_window_us));
  }
  const uint64_t target = commit_seq_;
  // Checkpoint swaps wal_writer_ only after waiting for !sync_in_progress_,
  // so the pointer captured here stays valid for the unlocked fsync below.
  WalWriter* writer = wal_writer_.get();
  lock.unlock();
  Status st = writer->Sync();
  lock.lock();
  sync_in_progress_ = false;
  if (!st.ok()) {
    RecordError(st);
    gc_cv_.notify_all();
    return st;
  }
  if (target > synced_seq_) synced_seq_ = target;
  gc_cv_.notify_all();
  return Status::OK();
}

// ---- Checkpoint ------------------------------------------------------------

Status StorageEngine::Checkpoint(const Database& db) {
  P3PDB_RETURN_IF_ERROR(FirstError());
  if (explicit_txn_ || current_txn_id_ != 0) {
    // A checkpoint mid-transaction would make uncommitted rows durable.
    return Status::OK();
  }
  const uint64_t next_gen = generation_ + 1;
  const std::string ckpt_name = "checkpoint." + std::to_string(next_gen) +
                                ".db";
  const std::string wal_name = "wal." + std::to_string(next_gen) + ".log";

  // 1. Write the full catalog image to the next-generation checkpoint file.
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<FileBackend> ckpt_file,
                         OpenFile(ckpt_name));
  P3PDB_RETURN_IF_ERROR(ckpt_file->Truncate(0));  // a stale attempt may exist
  CheckpointWriter writer(ckpt_file.get());
  {
    ByteWriter head;
    head.PutU32(kCheckpointMagic);
    head.PutU32(static_cast<uint32_t>(db.TableNames().size()));
    P3PDB_RETURN_IF_ERROR(writer.Append(head));
  }
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.LookupTable(name);
    ByteWriter header;
    header.PutSchema(table->schema());
    std::vector<const Index*> secondary;
    for (const auto& index : table->indexes()) {
      if (!IsImplicitPkIndex(*table, *index)) secondary.push_back(index.get());
    }
    header.PutU32(static_cast<uint32_t>(secondary.size()));
    for (const Index* index : secondary) {
      header.PutString(index->name());
      header.PutU32(static_cast<uint32_t>(index->column_ordinals().size()));
      for (size_t ord : index->column_ordinals()) {
        header.PutString(table->schema().columns()[ord].name);
      }
      header.PutU8(index->unique() ? 1 : 0);
    }
    ByteWriter framed;
    framed.PutU32(static_cast<uint32_t>(header.bytes.size()));
    framed.bytes.insert(framed.bytes.end(), header.bytes.begin(),
                        header.bytes.end());
    framed.PutU64(table->SlotCount());
    P3PDB_RETURN_IF_ERROR(writer.Append(framed));
    for (size_t slot = 0; slot < table->SlotCount(); ++slot) {
      ByteWriter blob;
      if (table->IsLive(slot)) {
        blob.PutU8(1);
        blob.PutRow(table->RowAt(slot));
      } else {
        blob.PutU8(0);
      }
      ByteWriter framed_slot;
      framed_slot.PutU32(static_cast<uint32_t>(blob.bytes.size()));
      framed_slot.bytes.insert(framed_slot.bytes.end(), blob.bytes.begin(),
                               blob.bytes.end());
      P3PDB_RETURN_IF_ERROR(writer.Append(framed_slot));
    }
  }
  P3PDB_RETURN_IF_ERROR(writer.Finish());
  P3PDB_RETURN_IF_ERROR(ckpt_file->Sync());

  // 2. Create the empty next-generation WAL (truncating a stale attempt).
  P3PDB_ASSIGN_OR_RETURN(std::unique_ptr<FileBackend> new_wal,
                         OpenFile(wal_name));
  P3PDB_RETURN_IF_ERROR(new_wal->Truncate(0));
  P3PDB_RETURN_IF_ERROR(new_wal->Sync());

  // 3. Flip the meta slot — this is the atomic commit point of the
  //    checkpoint. A crash before this line recovers at the old
  //    generation; after it, at the new one.
  const uint64_t old_gen = generation_;
  generation_ = next_gen;
  checkpoint_bytes_ = writer.total_bytes();
  Status st = WriteMeta();
  if (st.ok()) st = meta_file_->Sync();
  if (!st.ok()) {
    generation_ = old_gen;
    RecordError(st);
    return st;
  }

  // 4. Retire the old generation's files (best-effort; stale files are
  //    ignored by recovery). A group-commit leader may still be fsyncing
  //    the retired WAL — wait it out under gc_mu_ before freeing the file,
  //    then mark every staged commit durable: the image just made durable
  //    (fsync before the meta flip) contains all of them, so waiters can
  //    stop waiting for a WAL fsync that will never cover them.
  {
    std::unique_lock<std::mutex> lock(gc_mu_);
    gc_cv_.wait(lock, [this] { return !sync_in_progress_; });
    if (wal_writer_ != nullptr) {
      // Fold the retired writer's tallies in so stats stay monotonic across
      // the swap (the server's delta-sync metrics depend on that).
      stats_.wal_bytes += wal_writer_->bytes_written();
      stats_.wal_syncs += wal_writer_->syncs();
    }
    wal_file_ = std::move(new_wal);
    wal_writer_ = std::make_unique<WalWriter>(wal_file_.get(), 0);
    synced_seq_ = commit_seq_;
    gc_cv_.notify_all();
  }
  wal_bytes_since_checkpoint_ = 0;
  std::error_code ec;
  std::filesystem::remove(FilePath("wal." + std::to_string(old_gen) + ".log"),
                          ec);
  std::filesystem::remove(
      FilePath("checkpoint." + std::to_string(old_gen) + ".db"), ec);
  ++stats_.checkpoints;
  return Status::OK();
}

Status StorageEngine::MaybeCheckpoint(const Database& db) {
  if (options_.checkpoint_wal_bytes == 0) return Status::OK();
  if (wal_writer_ == nullptr) return Status::OK();
  if (wal_bytes_since_checkpoint_ + wal_writer_->bytes_written() <
      options_.checkpoint_wal_bytes) {
    return Status::OK();
  }
  return Checkpoint(db);
}

StorageStats StorageEngine::stats() const {
  StorageStats s = stats_;
  if (wal_writer_ != nullptr) {
    s.wal_bytes += wal_writer_->bytes_written();
    s.wal_syncs += wal_writer_->syncs();
  }
  return s;
}

}  // namespace p3pdb::sqldb
