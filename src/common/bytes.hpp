// Little-endian byte codec shared by every versioned wire form above the
// FHE layer: an append-only writer and a bounds-checked reader. Every
// reader method validates against the remaining bytes BEFORE touching them
// and every length prefix is checked against the buffer it claims to
// describe — the same overflow discipline as fhe/serialize.cpp. The framed
// process protocol (net/) and the session-state snapshot (service/) both
// encode through it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace poe {

/// Thrown on any malformed or damaged wire input: truncated reads, length
/// fields beyond the buffer or the protocol bound, bad magic / version /
/// checksum, and socket-level failures (a peer closing mid-frame). Derived
/// from poe::Error so the serving stack's typed-degradation machinery treats
/// protocol damage like any other organic fault.
class WireError : public Error {
 public:
  using Error::Error;
};

/// Append-only little-endian byte builder for message payloads.
class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// u32 length prefix + raw bytes.
  void blob(std::span<const std::uint8_t> bytes);
  void str(std::string_view s);

  std::span<const std::uint8_t> bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

/// Bounds-checked little-endian reader over a borrowed buffer. Every method
/// throws WireError instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Inverse of WireWriter::blob; the length prefix is validated against the
  /// remaining buffer before any allocation sized from it.
  std::span<const std::uint8_t> blob();
  std::string str();

  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// Throws when the message left undeclared trailing bytes.
  void expect_done(std::string_view what) const;

 private:
  std::span<const std::uint8_t> need(std::size_t n);

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace poe
