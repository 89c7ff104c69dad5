#include "util/memo_cache.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace clrearly::util {

namespace {

struct CapacityState {
  std::mutex mutex;
  std::optional<std::size_t> override_capacity;
};

CapacityState& capacity_state() {
  static CapacityState state;
  return state;
}

std::size_t env_capacity() {
  return detail::parse_cache_env(std::getenv("CLREARLY_CACHE"));
}

}  // namespace

namespace detail {

std::size_t parse_cache_env(const char* text) noexcept {
  // from_chars is deliberately strict: no leading whitespace, no sign
  // (strtoull would wrap "-1" to ULLONG_MAX instead of failing), no
  // trailing garbage, no locale dependence.
  if (text == nullptr || *text == '\0') return kDefaultCacheCapacity;
  std::size_t value = 0;
  const char* last = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, last, value);
  if (ec != std::errc{} || ptr != last) return kDefaultCacheCapacity;
  return value;
}

}  // namespace detail

void set_cache_capacity(std::size_t capacity) {
  CapacityState& state = capacity_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.override_capacity = capacity;
}

void reset_cache_capacity() {
  CapacityState& state = capacity_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.override_capacity.reset();
}

std::size_t cache_capacity() {
  CapacityState& state = capacity_state();
  std::lock_guard<std::mutex> lock(state.mutex);
  return state.override_capacity.has_value() ? *state.override_capacity
                                             : env_capacity();
}

}  // namespace clrearly::util
