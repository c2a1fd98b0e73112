#include "common/bytes.hpp"

namespace poe {

void WireWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void WireWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void WireWriter::blob(std::span<const std::uint8_t> bytes) {
  POE_ENSURE(bytes.size() <= UINT32_MAX, "blob exceeds u32 length prefix");
  u32(static_cast<std::uint32_t>(bytes.size()));
  out_.insert(out_.end(), bytes.begin(), bytes.end());
}

void WireWriter::str(std::string_view s) {
  blob({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

std::span<const std::uint8_t> WireReader::need(std::size_t n) {
  if (n > remaining()) {
    throw WireError("truncated wire message: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(remaining()));
  }
  auto view = bytes_.subspan(pos_, n);
  pos_ += n;
  return view;
}

std::uint8_t WireReader::u8() { return need(1)[0]; }

std::uint16_t WireReader::u16() {
  auto b = need(2);
  return static_cast<std::uint16_t>(b[0] | (std::uint16_t{b[1]} << 8));
}

std::uint32_t WireReader::u32() {
  auto b = need(4);
  return std::uint32_t{b[0]} | (std::uint32_t{b[1]} << 8) |
         (std::uint32_t{b[2]} << 16) | (std::uint32_t{b[3]} << 24);
}

std::uint64_t WireReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

std::span<const std::uint8_t> WireReader::blob() {
  const std::uint32_t len = u32();
  // The length field is untrusted: bound it by the bytes actually present
  // before it can size an allocation.
  if (len > remaining()) {
    throw WireError("blob length " + std::to_string(len) +
                    " exceeds the remaining " + std::to_string(remaining()) +
                    " bytes");
  }
  return need(len);
}

std::string WireReader::str() {
  auto b = blob();
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

void WireReader::expect_done(std::string_view what) const {
  if (remaining() != 0) {
    throw WireError(std::string(what) + ": " + std::to_string(remaining()) +
                    " undeclared trailing bytes");
  }
}

}  // namespace poe
