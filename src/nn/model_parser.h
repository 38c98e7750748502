// A small text DSL for describing networks — a Caffe-prototxt-inspired
// format so users can define their own applications without writing C++.
//
//   network tinycnn
//   input 3 16 16
//   conv  conv1 out=8 kernel=3 stride=1 pad=1
//   relu  relu1
//   maxpool pool1 kernel=2 stride=2
//   conv  conv2 out=16 kernel=3 pad=1 groups=2
//   relu  relu2  from=conv2
//   fc    fc1 out=32
//   softmax prob
//
// Rules: one directive per line; '#' starts a comment; layers chain onto
// the previous layer unless `from=<name>` (or `from=a,b,...` for concat)
// says otherwise; conv in-channels and fc in-features are inferred from the
// input shape. Keys: out, kernel, stride, pad, groups (conv); kernel,
// stride, pad (pools); size, alpha, beta, k (lrn); out (fc); and int8 on a
// conv or fc, where int8=1 opts the layer into int8 execution
// (Layer::SetInt8Execution) and int8=0, the default, leaves it float.
//
// Model text is outside input, so ParseModel bounds what it allocates:
// every integer (input dims included) lies in [0, 1e9], and every conv/fc
// weight tensor holds at most 1e9 elements. This text is also the model
// section of a network file (nn/serialize.h), the one place a layer kind
// and its hyper-parameters are encoded.
#pragma once

#include <string>

#include "nn/network.h"

namespace ccperf::nn {

/// Build a network from the DSL text. Throws CheckError with the offending
/// line number on malformed input.
[[nodiscard]] Network ParseModel(const std::string& text,
                                 std::uint64_t weight_seed = 0);

/// Load and parse a model description file.
[[nodiscard]] Network ParseModelFile(const std::string& path,
                                     std::uint64_t weight_seed = 0);

/// Render a network back into the DSL (topology, every hyper-parameter and
/// each layer's int8 opt-in, written as int8=1 only where it is set; no
/// weights): ParseModel of the result rebuilds the same layers, and
/// FormatModel of that returns the same text. LRN's float parameters are
/// written with max_digits10 digits when they differ from the defaults.
/// Throws CheckError on a network the text cannot carry: no layers, or a
/// network or layer name that is not one token (empty, or holding
/// whitespace, '#', '=' or ','), or a layer called "input".
[[nodiscard]] std::string FormatModel(const Network& net);

}  // namespace ccperf::nn
