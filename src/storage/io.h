// Buffered, instrumented sequential file I/O.
//
// Every byte the engine moves to or from disk flows through these two
// classes, which charge the owning IoChannel — that is how the repository
// reproduces Table I's intermediate-data rows and Fig. 2(d)'s bytes-read
// curve without scraping iostat.
#pragma once

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "common/slice.h"
#include "storage/io_stats.h"

namespace opmr {

// Chaos-plane seam: a process-global hook consulted before every physical
// write and read that flows through SequentialWriter/SequentialReader.  The
// fault-injection subsystem (src/fault) installs an implementation for the
// duration of a chaos run; production runs pay one relaxed atomic load per
// buffered I/O operation (not per record).  A hook may throw to simulate a
// device error — the failure then surfaces exactly where a real EIO would.
class IoFaultHook {
 public:
  virtual ~IoFaultHook() = default;

  // `offset` is the file offset at which the physical op starts; `bytes`
  // its size (for a read, the size requested: one buffer refill, or one
  // direct read of at least a buffer).
  virtual void BeforeWrite(const std::filesystem::path& path,
                           std::uint64_t offset, std::size_t bytes) = 0;
  virtual void BeforeRead(const std::filesystem::path& path,
                          std::uint64_t offset, std::size_t bytes) = 0;
};

// Installs (or, with nullptr, removes) the global hook.  The caller keeps
// ownership and must uninstall before destroying the hook.
void SetIoFaultHook(IoFaultHook* hook);
[[nodiscard]] IoFaultHook* GetIoFaultHook() noexcept;

class SequentialWriter {
 public:
  SequentialWriter(const std::filesystem::path& path, IoChannel channel,
                   std::size_t buffer_bytes = 1 << 16);
  ~SequentialWriter();

  SequentialWriter(const SequentialWriter&) = delete;
  SequentialWriter& operator=(const SequentialWriter&) = delete;
  SequentialWriter(SequentialWriter&& other) noexcept;
  SequentialWriter& operator=(SequentialWriter&&) = delete;

  void Append(Slice data);
  void AppendU32(std::uint32_t v);
  void AppendU64(std::uint64_t v);

  // Flushes buffered bytes to the OS.  The Hadoop baseline calls this with
  // `sync=true` after a map task's output (the paper's "synchronous I/O ...
  // required for fault tolerance"); the hash runtimes use plain flushes.
  void Flush(bool sync = false);

  // Flushes and closes; further writes are invalid.  Idempotent.
  void Close();

  // Discards buffered bytes and closes without flushing.  For abandoning a
  // failed attempt's output: the partial file is dead weight for FileManager
  // cleanup, and writing the remaining buffer would re-enter the I/O fault
  // hook for an attempt that has already failed.
  void Abandon() noexcept;

  [[nodiscard]] std::uint64_t bytes_written() const noexcept {
    return bytes_written_;
  }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  std::filesystem::path path_;
  IoChannel channel_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::size_t buffer_cap_;
  std::uint64_t bytes_written_ = 0;
};

// Buffered reader, the mirror of SequentialWriter: fields are served from
// an owned buffer that one physical read refills, so the fault hook and the
// channel's op count see physical reads, not fields.  The channel is charged
// the logical bytes consumed (byte-exact, including a Seek'd segment reader
// whose read-ahead runs past its segment), batched at each refill and in the
// destructor.
class SequentialReader {
 public:
  SequentialReader(const std::filesystem::path& path, IoChannel channel,
                   std::size_t buffer_bytes = 1 << 16);
  ~SequentialReader();

  SequentialReader(const SequentialReader&) = delete;
  SequentialReader& operator=(const SequentialReader&) = delete;
  SequentialReader(SequentialReader&& other) noexcept;
  SequentialReader& operator=(SequentialReader&&) = delete;

  // Reads exactly n bytes into dst; returns false on clean EOF at a record
  // boundary (0 bytes read), throws on short read mid-record.
  bool ReadExact(char* dst, std::size_t n);

  bool ReadU32(std::uint32_t* v);
  bool ReadU64(std::uint64_t* v);

  // Positions the reader at `offset` from the file start (drops the buffer).
  void Seek(std::uint64_t offset);

  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }
  [[nodiscard]] std::uint64_t FileSize() const;

 private:
  // One physical read of up to n bytes at file_pos_ into dst, after the
  // fault hook; charges the channel what was consumed since the last charge
  // plus one op.  Returns the bytes read (0 at EOF).
  std::size_t PhysicalRead(char* dst, std::size_t n);
  void ChargeConsumed(std::int64_t ops) noexcept;

  std::filesystem::path path_;
  IoChannel channel_;
  int fd_ = -1;
  std::unique_ptr<char[]> buffer_;
  std::size_t buffer_cap_;
  std::size_t pos_ = 0;          // next unread byte in buffer_
  std::size_t end_ = 0;          // end of the valid bytes in buffer_
  std::uint64_t file_pos_ = 0;   // file offset of the next physical read
  std::uint64_t bytes_read_ = 0; // logical bytes consumed since open
  std::uint64_t charged_ = 0;    // the prefix of bytes_read_ charged so far
};

}  // namespace opmr
