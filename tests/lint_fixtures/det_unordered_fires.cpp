// Fixture: an unordered container in an order-sensitive module (the test
// lints this under a pretend dist/stream_merge path) must fire det-unordered.
#include <cstdint>
#include <string>
#include <unordered_map>

std::unordered_map<std::uint64_t, std::string> index_by_digest();
