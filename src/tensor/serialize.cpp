#include "tensor/serialize.h"

namespace lcrs {

namespace {
constexpr std::uint32_t kTensorMagic = 0x4c435254;  // "LCRT"

/// What write_tensor emits: u32 magic + u32 rank, one i64 per dim, then
/// the float32 payload.
std::int64_t wire_bytes(std::int64_t rank, std::int64_t numel) {
  return 8 + 8 * rank + 4 * numel;
}
}  // namespace

void write_tensor(ByteWriter& w, const Tensor& t) {
  w.write_u32(kTensorMagic);
  w.write_u32(static_cast<std::uint32_t>(t.rank()));
  for (std::int64_t i = 0; i < t.rank(); ++i) w.write_i64(t.dim(i));
  w.write_bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

Tensor read_tensor(ByteReader& r) {
  const std::uint32_t magic = r.read_u32();
  if (magic != kTensorMagic) throw ParseError("bad tensor magic");
  const std::uint32_t rank = r.read_u32();
  if (rank > 8) throw ParseError("tensor rank too large: " + std::to_string(rank));
  std::vector<std::int64_t> dims(rank);
  std::int64_t numel = 1;
  for (auto& d : dims) {
    d = r.read_i64();
    if (d < 0 || d > (1ll << 28)) throw ParseError("bad tensor dim");
    numel *= d;
    if (numel > (1ll << 28)) throw ParseError("tensor too large");
  }
  // Validate the payload exists BEFORE allocating: a corrupt size field
  // must fail with ParseError, not bad_alloc.
  if (r.remaining() < static_cast<std::size_t>(numel) * sizeof(float)) {
    throw ParseError("tensor payload truncated");
  }
  Tensor t{Shape(dims)};
  r.read_bytes(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
  return t;
}

std::int64_t tensor_wire_bytes(const Shape& shape) {
  return wire_bytes(shape.rank(), shape.numel());
}

std::int64_t feature_map_wire_bytes(std::int64_t numel) {
  return wire_bytes(4, numel);
}

}  // namespace lcrs
