// Direct taint violations: secret identifiers straight into sinks.
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

namespace fixture {

struct Key64 {
  std::uint64_t bits() const { return 0; }
  const char* to_hex() const { return ""; }
};

void leak_printf(unsigned long long key_bits) {
  std::printf("key=%llx\n", key_bits);  // expect: taint-sink
}

void leak_stream(const std::string& puf_response_secret) {
  std::cout << "resp=" << puf_response_secret << "\n";  // expect: taint-sink
}

void leak_into_obs_event(const Key64& config_key) {
  // The JSONL artifact would carry the secret word verbatim.
  obs::event("calib.done", {{"key", config_key.to_hex()}});  // expect: taint-sink
}

void leak_into_metric(const Key64& provisioned) {
  obs::set_gauge("lock.word",  // expect: taint-sink
                 static_cast<double>(provisioned.bits()));
}

void leak_into_stream(const Key64& id_key) {
  std::cout << "unwrapped id key: " << id_key.bits() << "\n";  // expect: taint-sink
}

}  // namespace fixture
