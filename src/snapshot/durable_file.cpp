#include "snapshot/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/error.hpp"

namespace repro::snapshot {

namespace fs = std::filesystem;

void throw_io(std::string_view owner, const std::string& action,
              const std::string& path) {
  throw IoError(std::string{owner} + ": cannot " + action + " " + path + ": " +
                std::strerror(errno));
}

void write_fully(int fd, std::span<const std::uint8_t> bytes,
                 const std::string& path, std::string_view owner) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io(owner, "write", path);
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsync_file(int fd, const std::string& path, std::string_view owner) {
  if (::fsync(fd) != 0) throw_io(owner, "fsync", path);
}

void fsync_dir(const std::string& directory, std::string_view owner) {
  const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw_io(owner, "open directory", directory);
  if (::fsync(fd) != 0) {
    ::close(fd);
    throw_io(owner, "fsync directory", directory);
  }
  ::close(fd);
}

void atomic_write(const std::string& path, std::span<const std::uint8_t> bytes,
                  std::string_view owner) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io(owner, "open", tmp);
  try {
    write_fully(fd, bytes, tmp, owner);
    fsync_file(fd, tmp, owner);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) throw_io(owner, "close", tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw_io(owner, "rename", tmp);
  }
  const fs::path dir = fs::path{path}.parent_path();
  fsync_dir(dir.empty() ? std::string{"."} : dir.string(), owner);
}

std::optional<std::vector<std::uint8_t>> read_whole_file(
    const std::string& path) {
  struct Descriptor {
    int fd;
    ~Descriptor() {
      if (fd >= 0) ::close(fd);
    }
  } file{::open(path.c_str(), O_RDONLY)};
  if (file.fd < 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  struct stat info {};
  if (::fstat(file.fd, &info) == 0 && info.st_size > 0) {
    bytes.reserve(static_cast<std::size_t>(info.st_size));
  }
  // Appending through a fixed chunk grows the buffer only by what each
  // read delivered: a file that shrank after the fstat yields its real
  // bytes, never zero padding up to the stale size.
  std::array<std::uint8_t, std::size_t{1} << 16> chunk{};
  while (true) {
    const ::ssize_t n = ::read(file.fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), chunk.begin(), chunk.begin() + n);
  }
  return bytes;
}

std::string unique_quarantine_path(const std::string& path) {
  std::string candidate = path + ".quarantined";
  std::error_code ec;
  for (std::uint64_t n = 2; fs::exists(candidate, ec); ++n) {
    candidate = path + ".quarantined-" + std::to_string(n);
  }
  return candidate;
}

}  // namespace repro::snapshot
