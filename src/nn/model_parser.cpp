#include "nn/model_parser.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/check.h"
#include "nn/activation_layers.h"
#include "nn/concat_layer.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/lrn_layer.h"
#include "nn/pool_layer.h"
#include "nn/weights.h"

namespace ccperf::nn {

namespace {

// Bounds on what model text can make ParseModel allocate. The text is
// outside input (a model file, a network file's model section), so an
// implausible extent must fail as a CheckError naming its line, not as
// std::bad_alloc.
constexpr std::int64_t kMaxExtent = 1'000'000'000;
constexpr double kMaxWeightElements = 1e9;

// The characters that end a token: whitespace, the comment marker and the
// key=value and from-list separators.
constexpr const char* kTokenBreaks = " \t\n\v\f\r#=,";

/// One parsed directive line.
struct Line {
  int number = 0;
  std::string directive;
  std::string name;
  std::vector<std::string> dims;  // bare tokens after `input`'s first dim
  std::map<std::string, std::string> keys;
};

/// The keys each directive reads. A key outside its directive's list is an
/// error, so a misspelt hyper-parameter cannot fall back to its default.
const std::map<std::string, std::vector<std::string>>& DirectiveKeys() {
  static const auto* const kKeys =
      new std::map<std::string, std::vector<std::string>>{
          {"network", {}},
          {"input", {}},
          {"conv",
           {"out", "kernel", "stride", "pad", "groups", "int8", "from"}},
          {"fc", {"out", "int8", "from"}},
          {"maxpool", {"kernel", "stride", "pad", "from"}},
          {"avgpool", {"kernel", "stride", "pad", "from"}},
          {"lrn", {"size", "alpha", "beta", "k", "from"}},
          {"relu", {"from"}},
          {"softmax", {"from"}},
          {"dropout", {"from"}},
          {"concat", {"from"}},
      };
  return *kKeys;
}

std::vector<std::string> SplitWhitespace(const std::string& s) {
  std::istringstream iss(s);
  std::vector<std::string> tokens;
  std::string token;
  while (iss >> token) tokens.push_back(token);
  return tokens;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream iss(s);
  while (std::getline(iss, part, ',')) {
    if (!part.empty()) parts.push_back(part);
  }
  return parts;
}

std::int64_t GetInt(const Line& line, const std::string& key,
                    std::int64_t fallback, bool required = false) {
  const auto it = line.keys.find(key);
  if (it == line.keys.end()) {
    CCPERF_CHECK(!required, "line ", line.number, ": '", line.directive,
                 "' requires ", key, "=<int>");
    return fallback;
  }
  std::int64_t value = 0;
  try {
    value = std::stoll(it->second);
  } catch (const std::exception&) {
    CCPERF_CHECK(false, "line ", line.number, ": bad integer for ", key);
  }
  CCPERF_CHECK(value >= 0 && value <= kMaxExtent, "line ", line.number, ": ",
               key, "=", value, " is outside [0, ", kMaxExtent, "]");
  return value;
}

/// Throws unless a weight matrix of `rows` (an extent GetInt bounded) by
/// `cols` fits the bounds; `cols` is checked alone too, since the caller
/// multiplies its int64 factors next even when `rows` is 0.
void CheckWeightShape(const Line& line, double rows, double cols) {
  CCPERF_CHECK(cols <= kMaxWeightElements && rows * cols <= kMaxWeightElements,
               "line ", line.number, ": '", line.name, "' needs a ", rows,
               " x ", cols, " weight matrix, past the limit of ",
               kMaxWeightElements, " elements");
}

/// Throws unless `name` reads back from model text as the same one token.
void CheckToken(const std::string& name, const char* what) {
  CCPERF_CHECK(!name.empty() &&
                   name.find_first_of(kTokenBreaks) == std::string::npos,
               what, " name '", name,
               "' is not a model-text token: it must be non-empty, with no "
               "whitespace, '#', '=' or ','");
}

float GetFloat(const Line& line, const std::string& key, float fallback) {
  const auto it = line.keys.find(key);
  if (it == line.keys.end()) return fallback;
  try {
    return std::stof(it->second);
  } catch (const std::exception&) {
    CCPERF_CHECK(false, "line ", line.number, ": bad number for ", key);
  }
}

Line ParseLine(const std::string& raw, int number) {
  Line line;
  line.number = number;
  // Strip comments.
  std::string body = raw.substr(0, raw.find('#'));
  const auto tokens = SplitWhitespace(body);
  if (tokens.empty()) return line;  // blank
  line.directive = tokens[0];
  std::size_t first_kv = 1;
  if (line.directive != "network" && line.directive != "input") {
    CCPERF_CHECK(tokens.size() >= 2 && tokens[1].find('=') == std::string::npos,
                 "line ", number, ": '", line.directive,
                 "' needs a layer name");
    line.name = tokens[1];
    first_kv = 2;
  } else if (tokens.size() >= 2) {
    line.name = tokens[1];  // network name / first input dim
    first_kv = 2;
  }
  const auto known = DirectiveKeys().find(line.directive);
  CCPERF_CHECK(known != DirectiveKeys().end(), "line ", number,
               ": unknown directive '", line.directive, "'");
  const std::vector<std::string>& allowed = known->second;
  for (std::size_t i = first_kv; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      // Bare tokens after `input` are its other dims.
      CCPERF_CHECK(line.directive == "input", "line ", number,
                   ": expected key=value, got '", tokens[i], "'");
      line.dims.push_back(tokens[i]);
      continue;
    }
    const std::string key = tokens[i].substr(0, eq);
    CCPERF_CHECK(std::find(allowed.begin(), allowed.end(), key) !=
                     allowed.end(),
                 "line ", number, ": '", line.directive, "' has no key '", key,
                 "'");
    CCPERF_CHECK(line.keys.emplace(key, tokens[i].substr(eq + 1)).second,
                 "line ", number, ": key '", key, "' given twice");
  }
  return line;
}

}  // namespace

Network ParseModel(const std::string& text, std::uint64_t weight_seed) {
  std::istringstream iss(text);
  std::string raw;
  int number = 0;

  std::string net_name = "parsed";
  bool seen_input = false;
  Shape input_shape;
  std::unique_ptr<Network> net;
  // Batch-1 output shape of every named layer, for channel inference.
  std::map<std::string, Shape> shapes;

  auto shape_of = [&](const Line& line,
                      const std::string& name) -> const Shape& {
    const auto it = shapes.find(name);
    CCPERF_CHECK(it != shapes.end(), "line ", line.number,
                 ": unknown source layer '", name, "'");
    return it->second;
  };
  std::string last_name = "input";
  while (std::getline(iss, raw)) {
    ++number;
    const Line line = ParseLine(raw, number);
    if (line.directive.empty()) continue;

    if (line.directive == "network") {
      CCPERF_CHECK(!line.name.empty(), "line ", number, ": network needs a name");
      net_name = line.name;
      continue;
    }
    if (line.directive == "input") {
      CCPERF_CHECK(!seen_input, "line ", number, ": duplicate input");
      std::vector<std::int64_t> dims;
      try {
        dims.push_back(std::stoll(line.name));
        for (const auto& d : line.dims) dims.push_back(std::stoll(d));
      } catch (const std::exception&) {
        CCPERF_CHECK(false, "line ", number, ": bad input dims");
      }
      CCPERF_CHECK(dims.size() == 3, "line ", number,
                   ": input needs exactly C H W, got ", dims.size(), " dims");
      for (const std::int64_t d : dims) {
        CCPERF_CHECK(d >= 0 && d <= kMaxExtent, "line ", number,
                     ": input dim ", d, " is outside [0, ", kMaxExtent, "]");
      }
      input_shape = Shape(std::move(dims));
      net = std::make_unique<Network>(net_name, input_shape);
      shapes["input"] = Shape{1, input_shape.Dim(0), input_shape.Dim(1),
                              input_shape.Dim(2)};
      seen_input = true;
      continue;
    }

    CCPERF_CHECK(seen_input, "line ", number,
                 ": 'input C H W' must precede layers");
    std::vector<std::string> from;
    if (const auto it = line.keys.find("from"); it != line.keys.end()) {
      from = SplitCommas(it->second);
    }
    if (from.empty()) from.push_back(last_name);
    std::vector<Shape> in_shapes;
    for (const auto& f : from) in_shapes.push_back(shape_of(line, f));
    const Shape& in0 = in_shapes.front();

    std::unique_ptr<Layer> layer;
    if (line.directive == "conv") {
      ConvParams params;
      params.out_channels = GetInt(line, "out", 0, /*required=*/true);
      params.kernel = GetInt(line, "kernel", 1);
      params.stride = GetInt(line, "stride", 1);
      params.pad = GetInt(line, "pad", 0);
      params.groups = GetInt(line, "groups", 1);
      CCPERF_CHECK(params.groups >= 1, "line ", number,
                   ": conv groups must be at least 1");
      CheckWeightShape(line, static_cast<double>(params.out_channels),
                       static_cast<double>(in0.Dim(1) / params.groups) *
                           static_cast<double>(params.kernel) *
                           static_cast<double>(params.kernel));
      layer = std::make_unique<ConvLayer>(line.name, params, in0.Dim(1));
    } else if (line.directive == "fc") {
      const std::int64_t out = GetInt(line, "out", 0, /*required=*/true);
      CheckWeightShape(line, static_cast<double>(out),
                       static_cast<double>(in0.Dim(1)) *
                           static_cast<double>(in0.Dim(2)) *
                           static_cast<double>(in0.Dim(3)));
      layer = std::make_unique<FcLayer>(
          line.name, in0.Dim(1) * in0.Dim(2) * in0.Dim(3), out);
    } else if (line.directive == "maxpool" || line.directive == "avgpool") {
      PoolParams params;
      params.kernel = GetInt(line, "kernel", 2);
      params.stride = GetInt(line, "stride", 2);
      params.pad = GetInt(line, "pad", 0);
      layer = std::make_unique<PoolLayer>(
          line.name,
          line.directive == "maxpool" ? LayerKind::kMaxPool
                                      : LayerKind::kAvgPool,
          params);
    } else if (line.directive == "lrn") {
      LrnParams params;
      params.local_size = GetInt(line, "size", params.local_size);
      params.alpha = GetFloat(line, "alpha", params.alpha);
      params.beta = GetFloat(line, "beta", params.beta);
      params.k = GetFloat(line, "k", params.k);
      layer = std::make_unique<LrnLayer>(line.name, params);
    } else if (line.directive == "relu") {
      layer = std::make_unique<ReluLayer>(line.name);
    } else if (line.directive == "softmax") {
      layer = std::make_unique<SoftmaxLayer>(line.name);
    } else if (line.directive == "dropout") {
      layer = std::make_unique<DropoutLayer>(line.name);
    } else {  // concat: ParseLine admits no other directive
      layer = std::make_unique<ConcatLayer>(line.name);
    }
    if (const auto int8 = line.keys.find("int8"); int8 != line.keys.end()) {
      CCPERF_CHECK(int8->second == "0" || int8->second == "1", "line ", number,
                   ": int8 must be 0 or 1, got '", int8->second, "'");
      layer->SetInt8Execution(int8->second == "1");
    }

    // Validate shapes eagerly so errors carry the line number.
    Shape out_shape;
    try {
      out_shape = layer->OutputShape(in_shapes);
    } catch (const CheckError& e) {
      CCPERF_CHECK(false, "line ", number, ": ", e.what());
    }
    shapes[line.name] = out_shape;
    net->Add(std::move(layer), from);
    last_name = line.name;
  }

  CCPERF_CHECK(net != nullptr && net->LayerCount() > 0,
               "model text defines no layers");
  if (weight_seed != 0) InitializePretrainedWeights(*net, weight_seed);
  return std::move(*net);
}

Network ParseModelFile(const std::string& path, std::uint64_t weight_seed) {
  std::ifstream in(path);
  CCPERF_CHECK(in.good(), "cannot open model file '", path, "'");
  std::stringstream buffer;
  buffer << in.rdbuf();
  CCPERF_CHECK(!in.bad(), "read failed for model file '", path, "'");
  try {
    return ParseModel(buffer.str(), weight_seed);
  } catch (const CheckError& error) {
    // Re-raise with the path so the error stays actionable when many model
    // files are loaded in one run; the line context is in error.what().
    CCPERF_CHECK(false, "model file '", path, "': ", error.what());
  }
}

std::string FormatModel(const Network& net) {
  CheckToken(net.Name(), "network");
  CCPERF_CHECK(net.LayerCount() > 0, "network '", net.Name(),
               "' has no layers, which model text cannot describe");
  std::ostringstream out;
  // Enough digits that std::stof reads back the very same float.
  out.precision(std::numeric_limits<float>::max_digits10);
  out << "network " << net.Name() << "\n";
  out << "input " << net.InputShape().Dim(0) << " " << net.InputShape().Dim(1)
      << " " << net.InputShape().Dim(2) << "\n";
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    const Layer& layer = net.LayerAt(i);
    CheckToken(layer.Name(), "layer");
    CCPERF_CHECK(layer.Name() != "input",
                 "a layer cannot be called 'input': model text reserves it "
                 "for the network input");
    switch (layer.Kind()) {
      case LayerKind::kConvolution: {
        const auto& conv = static_cast<const ConvLayer&>(layer);
        out << "conv " << conv.Name() << " out=" << conv.Params().out_channels
            << " kernel=" << conv.Params().kernel
            << " stride=" << conv.Params().stride
            << " pad=" << conv.Params().pad;
        if (conv.Params().groups != 1) out << " groups=" << conv.Params().groups;
        break;
      }
      case LayerKind::kFullyConnected: {
        const auto& fc = static_cast<const FcLayer&>(layer);
        out << "fc " << fc.Name() << " out=" << fc.OutFeatures();
        break;
      }
      case LayerKind::kMaxPool:
      case LayerKind::kAvgPool: {
        const auto& pool = static_cast<const PoolLayer&>(layer);
        out << (layer.Kind() == LayerKind::kMaxPool ? "maxpool " : "avgpool ")
            << pool.Name() << " kernel=" << pool.Params().kernel
            << " stride=" << pool.Params().stride;
        if (pool.Params().pad != 0) out << " pad=" << pool.Params().pad;
        break;
      }
      case LayerKind::kLRN: {
        const LrnParams& params = static_cast<const LrnLayer&>(layer).Params();
        const LrnParams defaults;
        out << "lrn " << layer.Name() << " size=" << params.local_size;
        if (params.alpha != defaults.alpha) out << " alpha=" << params.alpha;
        if (params.beta != defaults.beta) out << " beta=" << params.beta;
        if (params.k != defaults.k) out << " k=" << params.k;
        break;
      }
      case LayerKind::kReLU: out << "relu " << layer.Name(); break;
      case LayerKind::kSoftmax: out << "softmax " << layer.Name(); break;
      case LayerKind::kDropout: out << "dropout " << layer.Name(); break;
      case LayerKind::kConcat: out << "concat " << layer.Name(); break;
      case LayerKind::kInput: break;
    }
    if (layer.Int8Execution()) out << " int8=1";
    // Emit explicit wiring when it deviates from simple chaining.
    const auto& inputs = net.NodeInputs(i);
    const bool chains = inputs.size() == 1 &&
                        inputs[0] == static_cast<std::int64_t>(i) - 1;
    if (!chains) {
      out << " from=";
      for (std::size_t k = 0; k < inputs.size(); ++k) {
        if (k) out << ",";
        out << (inputs[k] < 0
                    ? "input"
                    : net.LayerAt(static_cast<std::size_t>(inputs[k])).Name());
      }
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace ccperf::nn
