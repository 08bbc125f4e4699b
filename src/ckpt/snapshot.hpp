// The durable snapshot container (DESIGN.md §9).
//
// On-disk layout, little-endian:
//
//   bytes 0..3    magic "FPCK"
//   bytes 4..5    container format version (kSnapshotVersion)
//   bytes 6..7    reserved (zero)
//   bytes 8..15   payload length, uint64
//   bytes 16..    payload (component sections, see binary_io.hpp)
//   last 4        CRC32 over bytes 4 .. 15+payload_length
//
// The CRC covers everything after the magic, so flipping any single byte of
// version, length or payload makes decode_snapshot throw
// CorruptSnapshotError; a wrong version with an intact CRC throws
// VersionMismatchError (the bytes are fine, the format is not ours).
//
// write_snapshot_file is atomic: the bytes land in "<path>.tmp", are
// flushed and fsync'd, and only then renamed over the final path — a crash
// at any instant leaves either the old snapshot or the new one, never a
// torn file. This is the repo's only sanctioned durable-write path; the
// fedpower-lint L6-fs-write rule keeps ad-hoc file writing out of src/.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ckpt/errors.hpp"

namespace fedpower::ckpt {

inline constexpr std::uint16_t kSnapshotVersion = 1;
inline constexpr std::size_t kSnapshotHeaderBytes = 16;
inline constexpr std::size_t kSnapshotTrailerBytes = 4;

/// Wraps a payload in the checksummed container.
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(
    std::span<const std::uint8_t> payload);

/// Validates and unwraps a container. Throws CorruptSnapshotError on any
/// damage (truncation, bad magic, length mismatch, CRC failure) and
/// VersionMismatchError on an unsupported format revision.
[[nodiscard]] std::vector<std::uint8_t> decode_snapshot(
    std::span<const std::uint8_t> container);

/// Atomically persists a payload: write "<path>.tmp", flush + fsync,
/// rename onto path. Throws CkptError on I/O failure (the temp file is
/// removed best-effort).
void write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> payload);

/// Reads and unwraps a snapshot file. Throws SnapshotNotFoundError when the
/// file does not exist or cannot be opened; decode errors as above.
[[nodiscard]] std::vector<std::uint8_t> read_snapshot_file(
    const std::string& path);

/// Reads a whole file into memory. Throws SnapshotNotFoundError when it
/// cannot be opened.
[[nodiscard]] std::vector<std::uint8_t> read_file_bytes(
    const std::string& path);

}  // namespace fedpower::ckpt
