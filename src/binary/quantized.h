// Int8 payload accounting -- the classic compression alternative the
// binary approach competes with (paper Sec. II-B frames binarization
// against "effective compression methods"). The compression ablation
// compares download sizes only, so this module prices a model stored as
// symmetric per-filter int8 (one float scale per filter row) and runs no
// int8 inference.
#pragma once

#include <cstdint>

#include "nn/sequential.h"

namespace lcrs::binary {

/// Serialized byte size of a whole model with conv/linear weights stored
/// as int8 + scales and everything else float32 -- the int8 counterpart
/// of models::browser_payload_bytes.
std::int64_t int8_payload_bytes(nn::Sequential& model);

}  // namespace lcrs::binary
