#include "cloud/storage.h"

#include <cstring>

namespace simdc::cloud {

BlobId BlobStore::Put(std::vector<std::byte> bytes) {
  const std::size_t size = bytes.size();
  auto buffer =
      std::make_shared<const std::vector<std::byte>>(std::move(bytes));
  const std::byte* data = buffer->data();
  std::lock_guard<std::mutex> lock(mutex_);
  const BlobId id(next_id_++);
  total_bytes_ += size;
  bytes_written_ += size;
  blobs_.emplace(id, SharedBlob(std::move(buffer), data, size));
  if (journal_ != nullptr) journal_->OnPut(id, {data, size});
  return id;
}

BlobId BlobStore::PutPooled(std::span<const std::byte> bytes) {
  ByteArena::Allocation slot = ReservePooled(bytes.size());
  if (!bytes.empty()) std::memcpy(slot.data, bytes.data(), bytes.size());
  return CommitPooled(std::move(slot));
}

ByteArena::Allocation BlobStore::ReservePooled(std::size_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.Allocate(size);
}

BlobId BlobStore::CommitPooled(ByteArena::Allocation slot) {
  const std::byte* data = slot.data;
  const std::size_t size = slot.size;
  std::lock_guard<std::mutex> lock(mutex_);
  const BlobId id(next_id_++);
  total_bytes_ += size;
  bytes_written_ += size;
  blobs_.emplace(id, SharedBlob(std::move(slot.block), data, size));
  if (journal_ != nullptr) journal_->OnPut(id, {data, size});
  return id;
}

Result<std::vector<std::byte>> BlobStore::Get(BlobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (read_fault_hook_) {
    if (Status faulted = read_fault_hook_(id); !faulted.ok()) return faulted.error();
  }
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob not found: " + id.ToString());
  }
  bytes_read_ += it->second.size();
  return std::vector<std::byte>(it->second.begin(), it->second.end());
}

Result<SharedBlob> BlobStore::GetShared(BlobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (read_fault_hook_) {
    if (Status faulted = read_fault_hook_(id); !faulted.ok()) return faulted.error();
  }
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob not found: " + id.ToString());
  }
  bytes_read_ += it->second.size();
  return it->second;
}

Status BlobStore::Delete(BlobId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) {
    return NotFound("blob not found: " + id.ToString());
  }
  total_bytes_ -= it->second.size();
  blobs_.erase(it);
  if (journal_ != nullptr) journal_->OnDelete(id);
  return Status::Ok();
}

void BlobStore::set_journal(BlobJournal* journal) {
  std::lock_guard<std::mutex> lock(mutex_);
  journal_ = journal;
}

void BlobStore::set_read_fault_hook(ReadFaultHook hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  read_fault_hook_ = std::move(hook);
}

void BlobStore::RestoreBlob(BlobId id, std::vector<std::byte> bytes) {
  const std::size_t size = bytes.size();
  auto buffer =
      std::make_shared<const std::vector<std::byte>>(std::move(bytes));
  const std::byte* data = buffer->data();
  std::lock_guard<std::mutex> lock(mutex_);
  // Replacing is legal during replay only in the degenerate sense that the
  // log never repeats an id; operator[] keeps the code branch-free.
  total_bytes_ += size;
  blobs_[id] = SharedBlob(std::move(buffer), data, size);
  if (id.value() >= next_id_) next_id_ = id.value() + 1;
}

void BlobStore::SetNextId(std::uint64_t next_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  next_id_ = next_id;
}

std::uint64_t BlobStore::next_id() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_;
}

void BlobStore::RestoreTrafficCounters(std::size_t written, std::size_t read) {
  std::lock_guard<std::mutex> lock(mutex_);
  bytes_written_ = written;
  bytes_read_ = read;
}

bool BlobStore::Contains(BlobId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.contains(id);
}

std::size_t BlobStore::ReclaimArena() {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.Reclaim();
}

std::size_t BlobStore::blob_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.size();
}

std::size_t BlobStore::total_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_bytes_;
}

std::size_t BlobStore::bytes_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_written_;
}

std::size_t BlobStore::bytes_read() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_read_;
}

std::size_t BlobStore::arena_blocks_created() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.blocks_created();
}

std::size_t BlobStore::arena_blocks_recycled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arena_.blocks_recycled();
}

}  // namespace simdc::cloud
