#include "common/status.h"

#include <gtest/gtest.h>

namespace blusim {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  Status st = Status::OutOfDeviceMemory("need 42 bytes");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOutOfDeviceMemory);
  EXPECT_EQ(st.message(), "need 42 bytes");
  EXPECT_EQ(st.ToString(), "OutOfDeviceMemory: need 42 bytes");
}

TEST(StatusTest, RecoverableOnHostClassification) {
  EXPECT_TRUE(Status::OutOfDeviceMemory("").IsRecoverableOnHost());
  EXPECT_TRUE(Status::DeviceUnavailable("").IsRecoverableOnHost());
  EXPECT_TRUE(Status::CapacityExceeded("").IsRecoverableOnHost());
  EXPECT_TRUE(Status::NotSupported("").IsRecoverableOnHost());
  EXPECT_TRUE(Status::EstimateTooLow("").IsRecoverableOnHost());
  EXPECT_FALSE(Status::Internal("").IsRecoverableOnHost());
  EXPECT_FALSE(Status::InvalidArgument("").IsRecoverableOnHost());
  EXPECT_FALSE(Status::OK().IsRecoverableOnHost());
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kEstimateTooLow); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValueSupported) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(3));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 3);
}

Status Fails() { return Status::Internal("boom"); }
Status Succeeds() { return Status::OK(); }

Status UseReturnNotOk(bool fail) {
  BLUSIM_RETURN_NOT_OK(fail ? Fails() : Succeeds());
  return Status::OK();
}

TEST(StatusMacroTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(UseReturnNotOk(false).ok());
  EXPECT_EQ(UseReturnNotOk(true).code(), StatusCode::kInternal);
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  BLUSIM_ASSIGN_OR_RETURN(int h, Half(v));
  BLUSIM_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusMacroTest, AssignOrReturnChains) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace blusim
