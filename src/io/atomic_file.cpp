#include "io/atomic_file.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define PMCORR_HAVE_POSIX_IO 1
#include <fcntl.h>
#include <unistd.h>
#else
#define PMCORR_HAVE_POSIX_IO 0
#endif

namespace pmcorr {
namespace {

WriteFaultHook g_write_fault_hook;

void AtStage(const std::string& path, WriteStage stage) {
  if (g_write_fault_hook) g_write_fault_hook(path, stage);
}

std::string DirectoryOf(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

#if PMCORR_HAVE_POSIX_IO
// POSIX writer: explicit fds so fsync is possible. Returns false with
// `error` set instead of throwing so the caller can clean up the temp
// file on every failure path uniformly.
bool WriteAllPosix(const std::string& temp, std::string_view content,
                   std::string& error) {
  const int fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    error = "cannot create temp file " + temp;
    return false;
  }
  std::size_t offset = 0;
  while (offset < content.size()) {
    const std::size_t chunk =
        std::min(kWriteChunkBytes, content.size() - offset);
    try {
      AtStage(temp, WriteStage::kWrite);
    } catch (...) {
      ::close(fd);
      throw;  // simulated crash: temp file stays truncated at `offset`
    }
    const ssize_t put = ::write(fd, content.data() + offset, chunk);
    if (put < 0) {
      ::close(fd);
      error = "write failed on " + temp;
      return false;
    }
    offset += static_cast<std::size_t>(put);
  }
  try {
    AtStage(temp, WriteStage::kSync);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    error = "fsync failed on " + temp;
    return false;
  }
  if (::close(fd) != 0) {
    error = "close failed on " + temp;
    return false;
  }
  return true;
}

void SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;  // durability best-effort; rename already happened
  ::fsync(fd);
  ::close(fd);
}
#else
bool WriteAllPosix(const std::string& temp, std::string_view content,
                   std::string& error) {
  std::ofstream out(temp, std::ios::binary);
  if (!out) {
    error = "cannot create temp file " + temp;
    return false;
  }
  std::size_t offset = 0;
  while (offset < content.size()) {
    const std::size_t chunk =
        std::min(kWriteChunkBytes, content.size() - offset);
    AtStage(temp, WriteStage::kWrite);  // may throw; ofstream closes itself
    out.write(content.data() + offset, static_cast<std::streamsize>(chunk));
    offset += chunk;
  }
  AtStage(temp, WriteStage::kSync);
  out.flush();
  out.close();
  if (!out) {
    error = "write failed on " + temp;
    return false;
  }
  return true;
}

void SyncDirectory(const std::string&) {}
#endif

}  // namespace

const char* WriteStageName(WriteStage stage) {
  switch (stage) {
    case WriteStage::kOpen: return "open";
    case WriteStage::kWrite: return "write";
    case WriteStage::kSync: return "sync";
    case WriteStage::kRename: return "rename";
    case WriteStage::kDirSync: return "dirsync";
  }
  return "unknown";
}

WriteFaultHook SetWriteFaultHookForTest(WriteFaultHook hook) {
  WriteFaultHook previous = std::move(g_write_fault_hook);
  g_write_fault_hook = std::move(hook);
  return previous;
}

ScopedWriteFault::ScopedWriteFault(long long fail_at) : fail_at_(fail_at) {
  previous_ = SetWriteFaultHookForTest(
      [this](const std::string& path, WriteStage stage) {
        const long long point = seen_++;
        if (fail_at_ >= 0 && point == fail_at_) {
          fired_ = true;
          throw InjectedIoFailure("injected I/O failure at write point " +
                                  std::to_string(point) + " (" +
                                  WriteStageName(stage) + " of " + path + ")");
        }
      });
}

ScopedWriteFault::~ScopedWriteFault() {
  SetWriteFaultHookForTest(std::move(previous_));
}

void AtomicWriteFile(const std::string& path,
                     const std::function<void(std::ostream&)>& writer) {
  std::ostringstream buffer;
  writer(buffer);
  if (!buffer) {
    throw std::runtime_error("AtomicWriteFile: writer failed for " + path);
  }
  AtomicWriteFile(path, buffer.view());
}

void AtomicWriteFile(const std::string& path, std::string_view content) {
  const std::string temp = path + ".tmp";
  AtStage(temp, WriteStage::kOpen);
  std::string error;
  // A hook throwing inside WriteAllPosix is a simulated crash mid-write:
  // it propagates and leaves the truncated temp file exactly as a real
  // crash would — recovery must cope with it.
  const bool ok = WriteAllPosix(temp, content, error);
  if (!ok) {
    std::remove(temp.c_str());
    throw std::runtime_error("AtomicWriteFile: " + error);
  }
  try {
    AtStage(temp, WriteStage::kRename);
  } catch (...) {
    std::remove(temp.c_str());
    throw;
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    throw std::runtime_error("AtomicWriteFile: rename to " + path +
                             " failed");
  }
  AtStage(path, WriteStage::kDirSync);
  SyncDirectory(DirectoryOf(path));
}

bool ReadFileBytes(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  bytes.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(bytes.data(), size);
  return in.gcount() == size;
}

std::string ReadStreamBytes(std::istream& in) {
  std::string bytes;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) throw std::runtime_error("ReadStreamBytes: read failed");
  return bytes;
}

namespace {

constexpr std::uint32_t kCrc32Poly = 0xEDB88320u;

// Slicing-by-8 tables: kCrc32Tables[0][b] is the CRC of byte b, and
// kCrc32Tables[k][b] the CRC of byte b followed by k zero bytes, so one
// step folds eight input bytes with eight independent lookups.
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (kCrc32Poly & (0u - (crc & 1u)));
    }
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Little-endian 32-bit load, independent of host byte order and
// alignment.
std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t Crc32(std::string_view bytes) {
  const auto& t = kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ LoadLe32(p);
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace pmcorr
