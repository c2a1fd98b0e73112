// Wire primitives of the framed process protocol: the shared little-endian
// codec (common/bytes.hpp; net code names its WireWriter and WireReader
// through the enclosing namespace) and the IEEE CRC-32 the frame header
// carries.
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace poe::net {

using poe::WireError;

/// IEEE 802.3 CRC-32 (the zlib polynomial), table-driven.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

}  // namespace poe::net
