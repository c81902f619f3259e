#include "nn/layer.hpp"

namespace ocb::nn {

const char* op_name(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kConv: return "conv";
    case OpKind::kDwConv: return "dwconv";
    case OpKind::kDeconv: return "deconv";
    case OpKind::kMaxPool: return "maxpool";
    case OpKind::kUpsample: return "upsample";
    case OpKind::kConcat: return "concat";
    case OpKind::kAdd: return "add";
    case OpKind::kSlice: return "slice";
    case OpKind::kGlobalAvgPool: return "gap";
    case OpKind::kLinear: return "linear";
  }
  return "?";
}

}  // namespace ocb::nn
