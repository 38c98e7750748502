#include "nn/serialize.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "common/snapshot.h"
#include "nn/model_parser.h"

namespace ccperf::nn {

namespace {

constexpr std::uint32_t kNetworkTag = 0x43435046u;  // 'CCPF'

SnapshotWriter WriteNetwork(const Network& net) {
  const std::string model = FormatModel(net);
  SnapshotWriter writer(kNetworkTag);
  // Room for the text, every float with its tensor's count, and the
  // container's framing, so the buffer never regrows.
  writer.Reserve(model.size() +
                 sizeof(float) * static_cast<std::size_t>(net.ParameterCount()) +
                 2 * sizeof(std::uint64_t) * net.LayerCount() + 128);
  writer.AddSection("model").PutText(model);
  SnapshotSectionWriter& weights = writer.AddSection("weights");
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    const Layer& layer = net.LayerAt(i);
    if (!layer.HasWeights()) continue;
    weights.PutF32Vector(layer.Weights().Data());
    weights.PutF32Vector(layer.Bias().Data());
  }
  return writer;
}

/// `values` as a tensor of `expected`'s shape; throws unless they fit it.
Tensor Refill(const Tensor& expected, std::vector<float> values,
              const std::string& layer, const char* what) {
  CCPERF_CHECK(values.size() == expected.Data().size(),
               "corrupt network file: ", values.size(), " ", what,
               " floats for layer '", layer, "', which has ",
               expected.Data().size());
  return Tensor(expected.GetShape(), std::move(values));
}

Network ReadNetwork(const SnapshotReader& reader) {
  SnapshotSectionReader model = reader.Section("model");
  Network net = ParseModel(model.TakeText(), /*weight_seed=*/0);
  model.ExpectEnd();
  SnapshotSectionReader weights = reader.Section("weights");
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    Layer& layer = net.LayerAt(i);
    if (!layer.HasWeights()) continue;
    layer.MutableWeights() = Refill(layer.Weights(), weights.TakeF32Vector(),
                                    layer.Name(), "weight");
    layer.MutableBias() =
        Refill(layer.Bias(), weights.TakeF32Vector(), layer.Name(), "bias");
    layer.NotifyWeightsChanged();
  }
  weights.ExpectEnd();
  return net;
}

}  // namespace

std::string SaveNetwork(const Network& net) {
  return WriteNetwork(net).Serialize();
}

void SaveNetworkToFile(const Network& net, const std::string& path) {
  WriteSnapshotFileAtomic(path, WriteNetwork(net));
}

Network LoadNetwork(const std::string& bytes) {
  return ReadNetwork(SnapshotReader::Parse(bytes, kNetworkTag));
}

Network LoadNetworkFromFile(const std::string& path) {
  try {
    return ReadNetwork(SnapshotReader::FromFile(path, kNetworkTag));
  } catch (const CheckError& error) {
    // Re-raise with the path: a caller batch-loading many models needs to
    // know which file is the corrupt one.
    CCPERF_CHECK(false, "network file '", path, "': ", error.what());
  }
}

}  // namespace ccperf::nn
