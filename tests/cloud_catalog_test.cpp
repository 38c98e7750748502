#include "cloud/instance_catalog.h"

#include <gtest/gtest.h>

#include "cloud/pricing.h"
#include "common/check.h"

namespace ccperf::cloud {
namespace {

TEST(Catalog, Table3Verbatim) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  ASSERT_EQ(catalog.Types().size(), 6u);

  const InstanceType& p2xl = catalog.Find("p2.xlarge");
  EXPECT_EQ(p2xl.vcpus, 4);
  EXPECT_EQ(p2xl.gpus, 1);
  EXPECT_DOUBLE_EQ(p2xl.mem_gb, 61.0);
  EXPECT_DOUBLE_EQ(p2xl.gpu_mem_gb, 12.0);
  EXPECT_DOUBLE_EQ(p2xl.price_per_hour.value(), 0.90);
  EXPECT_EQ(p2xl.gpu, GpuKind::kK80);

  const InstanceType& p28 = catalog.Find("p2.8xlarge");
  EXPECT_EQ(p28.vcpus, 32);
  EXPECT_EQ(p28.gpus, 8);
  EXPECT_DOUBLE_EQ(p28.price_per_hour.value(), 7.20);

  const InstanceType& p216 = catalog.Find("p2.16xlarge");
  EXPECT_EQ(p216.gpus, 16);
  EXPECT_DOUBLE_EQ(p216.price_per_hour.value(), 14.40);

  const InstanceType& g34 = catalog.Find("g3.4xlarge");
  EXPECT_EQ(g34.vcpus, 16);
  EXPECT_EQ(g34.gpus, 1);
  EXPECT_DOUBLE_EQ(g34.price_per_hour.value(), 1.14);
  EXPECT_EQ(g34.gpu, GpuKind::kM60);

  const InstanceType& g38 = catalog.Find("g3.8xlarge");
  EXPECT_EQ(g38.gpus, 2);
  EXPECT_DOUBLE_EQ(g38.price_per_hour.value(), 2.28);

  const InstanceType& g316 = catalog.Find("g3.16xlarge");
  EXPECT_EQ(g316.gpus, 4);
  EXPECT_DOUBLE_EQ(g316.price_per_hour.value(), 4.56);
}

TEST(Catalog, PricePerGpuConstantWithinCategory) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  for (const auto& t : catalog.Category("p2")) {
    EXPECT_NEAR(t.price_per_hour.value() / t.gpus, 0.90, 1e-9);
  }
  for (const auto& t : catalog.Category("g3")) {
    EXPECT_NEAR(t.price_per_hour.value() / t.gpus, 1.14, 1e-9);
  }
}

TEST(Catalog, GpuCoreCountsMatchPaper) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  EXPECT_EQ(catalog.Gpu(GpuKind::kK80).cores, 2496);
  EXPECT_EQ(catalog.Gpu(GpuKind::kM60).cores, 2048);
}

TEST(Catalog, FindUnknownThrows) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  EXPECT_THROW(catalog.Find("c5.large"), CheckError);
}

TEST(Catalog, CategoryFiltering) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  EXPECT_EQ(catalog.Category("p2").size(), 3u);
  EXPECT_EQ(catalog.Category("g3").size(), 3u);
  EXPECT_TRUE(catalog.Category("t2").empty());
}

TEST(Catalog, RejectsEmptyOrInvalid) {
  EXPECT_THROW(InstanceCatalog({}, {}), CheckError);
  EXPECT_THROW(InstanceCatalog({InstanceType{.name = "x", .gpus = 0,
                                             .price_per_hour = UsdPerHour(1.0)}},
                               {}),
               CheckError);
}

TEST(GpuSpec, UtilizationMonotoneAndBounded) {
  const GpuSpec gpu = InstanceCatalog::AwsEc2().Gpu(GpuKind::kK80);
  double prev = 0.0;
  for (std::int64_t b : {1, 5, 25, 100, 300, 600, 2000}) {
    const double u = gpu.Utilization(b);
    EXPECT_GT(u, prev);
    EXPECT_LE(u, 1.0);
    prev = u;
  }
  EXPECT_NEAR(gpu.Utilization(1), gpu.util_min, 0.01);
  EXPECT_GT(gpu.Utilization(300), 0.85) << "paper Fig. 5: saturated by ~300";
}

TEST(GpuSpec, UtilizationRejectsZeroBatch) {
  const GpuSpec gpu = InstanceCatalog::AwsEc2().Gpu(GpuKind::kK80);
  EXPECT_THROW(gpu.Utilization(0), CheckError);
}

TEST(Pricing, ProratesToNearestSecond) {
  EXPECT_DOUBLE_EQ(ProratedCost(Seconds(3600.0), UsdPerHour(1.0)).value(), 1.0);
  EXPECT_DOUBLE_EQ(ProratedCost(Seconds(1800.0), UsdPerHour(2.0)).value(), 1.0);
  // 0.2 s bills as a full second.
  EXPECT_DOUBLE_EQ(ProratedCost(Seconds(0.2), UsdPerHour(3600.0)).value(), 1.0);
  EXPECT_DOUBLE_EQ(ProratedCost(Seconds(1.5), UsdPerHour(3600.0)).value(), 2.0);
  EXPECT_DOUBLE_EQ(ProratedCost(Seconds(0.0), UsdPerHour(10.0)).value(), 0.0);
}

TEST(Pricing, RejectsNegative) {
  EXPECT_THROW(ProratedCost(Seconds(-1.0), UsdPerHour(1.0)), CheckError);
  EXPECT_THROW(ProratedCost(Seconds(1.0), UsdPerHour(-1.0)), CheckError);
}

TEST(GpuKind, Names) {
  EXPECT_STREQ(GpuKindName(GpuKind::kK80), "NVIDIA K80");
  EXPECT_STREQ(GpuKindName(GpuKind::kM60), "NVIDIA M60");
}

}  // namespace
}  // namespace ccperf::cloud
