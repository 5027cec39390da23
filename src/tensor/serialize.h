// Tensor (de)serialization into the library's byte format.
#pragma once

#include "common/bytes.h"
#include "tensor/tensor.h"

namespace lcrs {

/// Appends shape + raw float32 payload.
void write_tensor(ByteWriter& w, const Tensor& t);

/// Reads a tensor previously written by write_tensor.
Tensor read_tensor(ByteReader& r);

/// Serialized size in bytes of a tensor of `shape` (header + payload);
/// used by the cost model to price intermediate transfers.
std::int64_t tensor_wire_bytes(const Shape& shape);

/// Serialized size in bytes of a [1, C, H, W] feature map holding `numel`
/// elements: the conv1 upload a browser sends on an entropy miss.
std::int64_t feature_map_wire_bytes(std::int64_t numel);

}  // namespace lcrs
