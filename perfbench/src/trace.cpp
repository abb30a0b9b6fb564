#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

// Spans open on this thread, innermost last.
thread_local std::vector<Span> t_open;

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  main_thread_ = std::this_thread::get_id();
  enabled_.store(true);
}

std::uint64_t Tracer::open(const char* name) {
  Span s;
  s.id = next_id_.fetch_add(1);
  s.parent = t_open.empty() ? main_top_.load() : t_open.back().id;
  s.iter = iter_.load();
  s.name = name;
  if (std::this_thread::get_id() == main_thread_) main_top_.store(s.id);
  s.start_s = now_s();
  t_open.push_back(std::move(s));
  return t_open.back().id;
}

void Tracer::close(std::uint64_t id) {
  const double end = now_s();
  // Spans close in LIFO order on their own thread (ScopedSpan).
  if (t_open.empty() || t_open.back().id != id) {
    std::fprintf(stderr, "perfbench: span closed out of order\n");
    std::abort();
  }
  Span s = std::move(t_open.back());
  t_open.pop_back();
  s.end_s = end;
  if (std::this_thread::get_id() == main_thread_) {
    main_top_.store(t_open.empty() ? 0 : t_open.back().id);
  }
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(std::move(s));
}

void Tracer::restart_in_child(std::uint64_t id_base) {
  std::lock_guard<std::mutex> lock(mu_);
  done_.clear();
  next_id_.store(id_base);
}

void Tracer::adopt(std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : spans) done_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void Tracer::write_lines(const std::string& path) const {
  std::ofstream out(path);
  char buf[128];
  for (const auto& s : spans()) {
    std::snprintf(buf, sizeof(buf), "%llu %llu %lld %.9f %.9f ",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.iter), s.start_s, s.end_s);
    out << buf << s.name << '\n';
  }
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

std::vector<Span> Tracer::read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perfbench: cannot read " + path);
  std::vector<Span> spans;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    Span s;
    unsigned long long id = 0;
    unsigned long long parent = 0;
    long long iter = 0;
    if (!(is >> id >> parent >> iter >> s.start_s >> s.end_s >> s.name)) {
      throw std::runtime_error("perfbench: bad span line in " + path);
    }
    s.id = id;
    s.parent = parent;
    s.iter = iter;
    spans.push_back(std::move(s));
  }
  return spans;
}

}  // namespace perfbench
