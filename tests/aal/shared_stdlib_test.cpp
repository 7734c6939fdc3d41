// The stdlib is built once per process and shared by every script; chunks
// are interned by source text.  Neither may leak one script's state into
// another.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "aal/script.hpp"
#include "store/attribute_store.hpp"

namespace rbay::aal {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::shared_ptr<Script> instantiate(const std::shared_ptr<const Chunk>& chunk) {
  auto script = Script::instantiate(chunk);
  EXPECT_TRUE(script.ok()) << (script.ok() ? "" : script.error());
  return script.ok() ? script.take() : nullptr;
}

TEST(SharedStdlib, WritesToStdlibNamesStayInTheWritingScript) {
  auto compiled = Chunk::compile(R"(
function vandalize()
  string.upper = nil
  math.pi = 3
  print = nil
  crypto = nil
end
function probe()
  return type(string.upper), math.pi, type(print), type(crypto)
end)");
  ASSERT_TRUE(compiled.ok()) << compiled.error();
  const auto chunk = compiled.take();
  auto a = instantiate(chunk);
  auto b = instantiate(chunk);
  ASSERT_TRUE(a && b);
  ASSERT_TRUE(a->call("vandalize", {}).ok());

  auto seen_by_a = a->call_multi("probe", {});
  ASSERT_TRUE(seen_by_a.ok()) << seen_by_a.error();
  EXPECT_EQ(seen_by_a.value()[0].as_string(), "nil");
  EXPECT_DOUBLE_EQ(seen_by_a.value()[1].as_number(), 3.0);
  EXPECT_EQ(seen_by_a.value()[2].as_string(), "nil");
  EXPECT_EQ(seen_by_a.value()[3].as_string(), "nil");

  auto later = instantiate(chunk);
  ASSERT_TRUE(later);
  for (const auto& other : {b, later}) {
    auto seen = other->call_multi("probe", {});
    ASSERT_TRUE(seen.ok()) << seen.error();
    EXPECT_EQ(seen.value()[0].as_string(), "function");
    EXPECT_DOUBLE_EQ(seen.value()[1].as_number(), kPi);
    EXPECT_EQ(seen.value()[2].as_string(), "function");
    EXPECT_EQ(seen.value()[3].as_string(), "table");
  }

  const auto& stdlib = shared_stdlib().vars;
  EXPECT_TRUE(stdlib.at("string").as_table()->get(TableKey{std::string("upper")}).is_native());
  EXPECT_DOUBLE_EQ(stdlib.at("math").as_table()->get(TableKey{std::string("pi")}).as_number(),
                   kPi);
  EXPECT_TRUE(stdlib.at("print").is_native());
  EXPECT_TRUE(stdlib.at("crypto").is_table());
}

TEST(SharedStdlib, AModuleReadTwiceIsOneTable) {
  auto script = Script::load(R"(
function f()
  local s = string
  s.x = 1
  return string.x
end)");
  ASSERT_TRUE(script.ok()) << script.error();
  auto r = script.value()->call("f", {});
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_DOUBLE_EQ(r.value().as_number(), 1.0);

  auto other = Script::load("function f() return string.x end");
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other.value()->call("f", {}).value().is_nil());
}

TEST(SharedStdlib, HostLookupsResolveStdlibNames) {
  auto script = Script::load("function onGet() return true end");
  ASSERT_TRUE(script.ok());
  const auto& s = *script.value();
  EXPECT_TRUE(s.has_function("onGet"));
  EXPECT_TRUE(s.has_function("print"));
  EXPECT_FALSE(s.has_function("math"));
  EXPECT_FALSE(s.has_function("io"));
  EXPECT_TRUE(s.global("math").is_table());
  EXPECT_TRUE(s.global("tostring").is_native());
  EXPECT_TRUE(s.global("missing").is_nil());
  auto r = script.value()->call("tostring", {Value::number(42)});
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.value().as_string(), "42");
}

TEST(SharedStdlib, EmptyChunkHasTheBaseFootprint) {
  // The stdlib, crypto included, is never charged to a script, not even
  // the private module copies a script reads.
  for (const char* source :
       {"", "assert(string.len(crypto.sha1('x')) == 40 and math.floor(1.5) == 1)"}) {
    auto script = Script::load(source);
    ASSERT_TRUE(script.ok()) << source;
    EXPECT_EQ(script.value()->memory_footprint(/*include_chunk=*/false), 32u) << source;
  }
}

TEST(ChunkInterning, StoresShareOneChunkThatDiesWithItsLastScript) {
  const std::string source =
      "-- ChunkInterning.StoresShareOneChunk\nfunction onGet() return true end";
  std::weak_ptr<const Chunk> weak;
  {
    store::AttributeStore first;
    store::AttributeStore second;
    ASSERT_TRUE(first.attach_handlers("GPU", source).ok());
    ASSERT_TRUE(second.attach_handlers("RAM", source).ok());
    const auto& a = first.find("GPU")->script();
    const auto& b = second.find("RAM")->script();
    EXPECT_NE(a.get(), b.get());  // private state
    EXPECT_EQ(a->chunk().get(), b->chunk().get());
    weak = a->chunk();
    first.remove("GPU");
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());

  auto again = Chunk::compile(source);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->source(), source);
}

}  // namespace
}  // namespace rbay::aal
