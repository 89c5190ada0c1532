// Durable-file primitives shared by the epoch checkpoints and the
// ingest WAL: the only place in the project that writes, fsyncs and
// renames files on the crash-safety paths.
//
// Every writer takes an `owner` tag ("checkpoint", "wal") that prefixes
// the IoError it throws, so a failure names the layer that hit it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace repro::snapshot {

/// Throws IoError "<owner>: cannot <action> <path>: <strerror(errno)>".
[[noreturn]] void throw_io(std::string_view owner, const std::string& action,
                           const std::string& path);

/// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
void write_fully(int fd, std::span<const std::uint8_t> bytes,
                 const std::string& path, std::string_view owner);

/// fsyncs `fd`, the open descriptor of `path`.
void fsync_file(int fd, const std::string& path, std::string_view owner);

/// fsyncs a directory so a just-created or just-renamed entry in it
/// survives a crash.
void fsync_dir(const std::string& directory, std::string_view owner);

/// Writes `bytes` to `path` atomically and durably: the data goes to
/// "<path>.tmp", is fsynced, renamed over `path`, and the parent
/// directory is fsynced so the rename itself survives a crash. A crash
/// part-way therefore only ever leaves a ".tmp" file behind, never a
/// half-written file under the final name.
void atomic_write(const std::string& path, std::span<const std::uint8_t> bytes,
                  std::string_view owner);

/// Reads a whole file with sized reads into a buffer reserved from its
/// size, keeping exactly the bytes delivered. std::nullopt when the
/// file cannot be opened or read; each caller throws its own error
/// type.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_whole_file(
    const std::string& path);

/// First unused quarantine name for `path`: "<path>.quarantined", then
/// "<path>.quarantined-2", "-3", ... — so repeated corruptions of the
/// same file keep every piece of quarantined evidence instead of
/// overwriting the previous one.
[[nodiscard]] std::string unique_quarantine_path(const std::string& path);

}  // namespace repro::snapshot
