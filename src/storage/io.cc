#include "storage/io.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <unistd.h>

namespace opmr {

namespace {
[[noreturn]] void ThrowErrno(const std::string& what,
                             const std::filesystem::path& path) {
  throw std::runtime_error(what + " " + path.string() + ": " +
                           std::strerror(errno));
}

std::atomic<IoFaultHook*> g_io_fault_hook{nullptr};
}  // namespace

void SetIoFaultHook(IoFaultHook* hook) {
  g_io_fault_hook.store(hook, std::memory_order_release);
}

IoFaultHook* GetIoFaultHook() noexcept {
  return g_io_fault_hook.load(std::memory_order_acquire);
}

SequentialWriter::SequentialWriter(const std::filesystem::path& path,
                                   IoChannel channel, std::size_t buffer_bytes)
    : path_(path), channel_(channel), buffer_cap_(buffer_bytes) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) ThrowErrno("SequentialWriter: cannot open", path);
  buffer_.reserve(buffer_cap_);
}

SequentialWriter::SequentialWriter(SequentialWriter&& other) noexcept
    : path_(std::move(other.path_)),
      channel_(other.channel_),
      file_(other.file_),
      buffer_(std::move(other.buffer_)),
      buffer_cap_(other.buffer_cap_),
      bytes_written_(other.bytes_written_) {
  other.file_ = nullptr;
}

SequentialWriter::~SequentialWriter() {
  try {
    Close();
  } catch (...) {
    // Destructor must not throw; the file is left partially written, which
    // is acceptable for spill files cleaned up by FileManager.
  }
}

void SequentialWriter::Append(Slice data) {
  buffer_.append(data.data(), data.size());
  bytes_written_ += data.size();
  if (buffer_.size() >= buffer_cap_) Flush();
}

void SequentialWriter::AppendU32(std::uint32_t v) {
  opmr::AppendU32(buffer_, v);
  bytes_written_ += sizeof(v);
  if (buffer_.size() >= buffer_cap_) Flush();
}

void SequentialWriter::AppendU64(std::uint64_t v) {
  opmr::AppendU64(buffer_, v);
  bytes_written_ += sizeof(v);
  if (buffer_.size() >= buffer_cap_) Flush();
}

void SequentialWriter::Flush(bool sync) {
  if (file_ == nullptr) throw std::logic_error("Flush on closed writer");
  if (!buffer_.empty()) {
    if (auto* hook = GetIoFaultHook()) {
      hook->BeforeWrite(path_, bytes_written_ - buffer_.size(), buffer_.size());
    }
    const std::size_t n = std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    if (n != buffer_.size()) ThrowErrno("SequentialWriter: short write", path_);
    channel_.Add(static_cast<std::int64_t>(buffer_.size()));
    buffer_.clear();
  }
  if (std::fflush(file_) != 0) ThrowErrno("SequentialWriter: fflush", path_);
  if (sync) {
    // fdatasync, the persistence point Hadoop requires of completed maps.
    if (::fdatasync(::fileno(file_)) != 0) {
      ThrowErrno("SequentialWriter: fdatasync", path_);
    }
  }
}

void SequentialWriter::Abandon() noexcept {
  buffer_.clear();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void SequentialWriter::Close() {
  if (file_ == nullptr) return;
  Flush();
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    ThrowErrno("SequentialWriter: fclose", path_);
  }
  file_ = nullptr;
}

SequentialReader::SequentialReader(const std::filesystem::path& path,
                                   IoChannel channel, std::size_t buffer_bytes)
    : path_(path), channel_(channel), buffer_cap_(buffer_bytes) {
  fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) ThrowErrno("SequentialReader: cannot open", path);
  buffer_.reset(new char[buffer_cap_]);
}

SequentialReader::SequentialReader(SequentialReader&& other) noexcept
    : path_(std::move(other.path_)),
      channel_(other.channel_),
      fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      buffer_cap_(other.buffer_cap_),
      pos_(other.pos_),
      end_(other.end_),
      file_pos_(other.file_pos_),
      bytes_read_(other.bytes_read_),
      charged_(other.charged_) {
  other.fd_ = -1;  // the moved-from reader charges nothing
}

SequentialReader::~SequentialReader() {
  if (fd_ < 0) return;
  ChargeConsumed(0);
  ::close(fd_);
}

void SequentialReader::ChargeConsumed(std::int64_t ops) noexcept {
  channel_.Add(static_cast<std::int64_t>(bytes_read_ - charged_), ops);
  charged_ = bytes_read_;
}

std::size_t SequentialReader::PhysicalRead(char* dst, std::size_t n) {
  if (auto* hook = GetIoFaultHook()) hook->BeforeRead(path_, file_pos_, n);
  ssize_t got = 0;
  do {
    got = ::pread(fd_, dst, n, static_cast<off_t>(file_pos_));
  } while (got < 0 && errno == EINTR);
  if (got < 0) ThrowErrno("SequentialReader: read", path_);
  file_pos_ += static_cast<std::uint64_t>(got);
  ChargeConsumed(1);
  return static_cast<std::size_t>(got);
}

bool SequentialReader::ReadExact(char* dst, std::size_t n) {
  std::size_t done = 0;
  while (true) {
    const std::size_t take = std::min(n - done, end_ - pos_);
    if (take != 0) std::memcpy(dst + done, buffer_.get() + pos_, take);
    pos_ += take;
    done += take;
    if (done == n) break;
    // The buffer is drained: a read of at least one buffer goes straight
    // into dst, anything smaller refills the buffer.
    std::size_t got = 0;
    if (n - done >= buffer_cap_) {
      got = PhysicalRead(dst + done, n - done);
      done += got;
    } else {
      got = PhysicalRead(buffer_.get(), buffer_cap_);
      pos_ = 0;
      end_ = got;
    }
    if (got == 0) {
      if (done == 0) return false;
      throw std::runtime_error("SequentialReader: truncated read from " +
                               path_.string());
    }
  }
  bytes_read_ += n;
  return true;
}

bool SequentialReader::ReadU32(std::uint32_t* v) {
  char buf[sizeof(std::uint32_t)];
  if (!ReadExact(buf, sizeof(buf))) return false;
  *v = DecodeU32(buf);
  return true;
}

bool SequentialReader::ReadU64(std::uint64_t* v) {
  char buf[sizeof(std::uint64_t)];
  if (!ReadExact(buf, sizeof(buf))) return false;
  *v = DecodeU64(buf);
  return true;
}

void SequentialReader::Seek(std::uint64_t offset) {
  pos_ = 0;
  end_ = 0;
  file_pos_ = offset;
}

std::uint64_t SequentialReader::FileSize() const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path_, ec);
  if (ec) throw std::runtime_error("file_size: " + ec.message());
  return size;
}

}  // namespace opmr
