// MetricsScrapeServer: a raw AF_UNIX client exercises the full pull path —
// 200 with Prometheus text for GET /metrics, 404 for unknown paths, 405
// for non-GET — plus the lifecycle edges: double Start refused, too-long
// socket path refused, Stop unlinks the socket file, restart on the same
// path works.
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/scrape.h"
#include "serve/rec_service.h"
#include "tests/temp_path.h"
#include "util/status.h"

namespace imcat {
namespace {

bool PathExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Connects, sends `request`, reads the whole response until EOF. Retries
/// the connect briefly: Start() returns as soon as the socket is bound, but
/// a parallel test machine can still delay the accept loop's first poll.
std::string Scrape(const std::string& socket_path,
                   const std::string& request) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  int connected = -1;
  for (int attempt = 0; attempt < 50 && connected != 0; ++attempt) {
    connected =
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    if (connected != 0) ::usleep(10 * 1000);
  }
  EXPECT_EQ(connected, 0) << socket_path << ": " << std::strerror(errno);
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ScrapeTest, GetMetricsServesPrometheusText) {
  MetricsRegistry registry;
  registry.GetCounter("scrape_test_requests_total")->Add(7);
  registry.GetGauge("scrape_test_depth")->Set(3.5);
  MetricsScrapeServer server(&registry);
  const std::string path = TestTempPath("scrape_ok.sock");
  ASSERT_TRUE(server.Start(path).ok());
  EXPECT_TRUE(server.running());

  const std::string response =
      Scrape(path, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("scrape_test_requests_total 7"), std::string::npos)
      << response;
  EXPECT_NE(response.find("scrape_test_depth"), std::string::npos);

  // Each scrape snapshots the registry at request time, not bind time.
  registry.GetCounter("scrape_test_requests_total")->Add(3);
  const std::string second = Scrape(path, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(second.find("scrape_test_requests_total 10"), std::string::npos)
      << second;
  server.Stop();
}

TEST(ScrapeTest, UnknownPathAndNonGetAreRefused) {
  MetricsRegistry registry;
  MetricsScrapeServer server(&registry);
  const std::string path = TestTempPath("scrape_refuse.sock");
  ASSERT_TRUE(server.Start(path).ok());
  EXPECT_NE(Scrape(path, "GET /health HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 404 Not Found"),
            std::string::npos);
  EXPECT_NE(Scrape(path, "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405 Method Not Allowed"),
            std::string::npos);
  server.Stop();
}

TEST(ScrapeTest, HealthzIs404WithoutProviderAndJsonWithOne) {
  MetricsRegistry registry;

  // Without a provider /healthz is just another unknown path.
  {
    MetricsScrapeServer server(&registry);
    const std::string path = TestTempPath("scrape_healthz_off.sock");
    ASSERT_TRUE(server.Start(path).ok());
    EXPECT_NE(Scrape(path, "GET /healthz HTTP/1.0\r\n\r\n")
                  .find("HTTP/1.0 404 Not Found"),
              std::string::npos);
    server.Stop();
  }

  // With one, /healthz serves the provider's JSON per request.
  MetricsScrapeServer server(&registry);
  std::string status = "ok";
  server.set_health_provider(
      [&status] { return "{\"status\":\"" + status + "\"}"; });
  const std::string path = TestTempPath("scrape_healthz_on.sock");
  ASSERT_TRUE(server.Start(path).ok());
  const std::string response = Scrape(path, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("{\"status\":\"ok\"}"), std::string::npos);

  // Called per request: state changes are visible on the next scrape.
  status = "browned_out";
  EXPECT_NE(Scrape(path, "GET /healthz HTTP/1.0\r\n\r\n")
                .find("{\"status\":\"browned_out\"}"),
            std::string::npos);
  server.Stop();
}

TEST(ScrapeTest, HealthzServesRecServiceHealthReport) {
  // The intended wiring: provider = RecService::HealthJson. A service with
  // no snapshot loaded reports itself degraded, with breaker and
  // brownout-ladder state inline.
  MetricsRegistry registry;
  EdgeList train{{0, 1}, {0, 2}, {1, 2}};
  auto fallback = std::make_shared<PopularityRanker>(4, train);
  RecServiceOptions options;
  options.num_workers = 1;
  options.metrics = &registry;
  RecService service(fallback, options);

  MetricsScrapeServer server(&registry);
  server.set_health_provider([&service] { return service.HealthJson(); });
  const std::string path = TestTempPath("scrape_healthz_svc.sock");
  ASSERT_TRUE(server.Start(path).ok());
  const std::string response = Scrape(path, "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"status\":\"degraded\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"breaker\":"), std::string::npos);
  EXPECT_NE(response.find("\"brownout_level\":0"), std::string::npos);
  EXPECT_NE(response.find("\"overloaded\":false"), std::string::npos);
  EXPECT_NE(response.find("\"loaded\":false"), std::string::npos);
  server.Stop();
  service.Shutdown();
}

TEST(ScrapeTest, DoubleStartIsRefusedAndTooLongPathIsIoError) {
  MetricsRegistry registry;
  MetricsScrapeServer server(&registry);
  const std::string path = TestTempPath("scrape_double.sock");
  ASSERT_TRUE(server.Start(path).ok());
  const Status again = server.Start(TestTempPath("scrape_other.sock"));
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  server.Stop();

  // sun_path is ~108 bytes; a longer path must fail cleanly, not truncate.
  const Status too_long = server.Start(std::string(200, 'x'));
  EXPECT_EQ(too_long.code(), StatusCode::kIoError);
  EXPECT_FALSE(server.running());
}

TEST(ScrapeTest, StopUnlinksSocketAndServerRestartsOnSamePath) {
  MetricsRegistry registry;
  registry.GetCounter("scrape_restart_total")->Increment();
  MetricsScrapeServer server(&registry);
  const std::string path = TestTempPath("scrape_restart.sock");
  ASSERT_TRUE(server.Start(path).ok());
  EXPECT_TRUE(PathExists(path));
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(PathExists(path));

  // Same object restarts on the same path; a fresh scrape succeeds.
  ASSERT_TRUE(server.Start(path).ok());
  EXPECT_NE(Scrape(path, "GET /metrics HTTP/1.0\r\n\r\n")
                .find("scrape_restart_total 1"),
            std::string::npos);
  server.Stop();
}

TEST(ScrapeTest, RedundantStopUnlinksOnlyItsOwnSocket) {
  // Stop must unlink the socket exactly once: after a stopped server's
  // path is re-bound by another server, calling the first server's Stop
  // again must be a no-op — not unlink the new owner's endpoint.
  MetricsRegistry registry;
  registry.GetCounter("scrape_owner_total")->Add(2);
  MetricsScrapeServer first(&registry);
  const std::string path = TestTempPath("scrape_once.sock");
  ASSERT_TRUE(first.Start(path).ok());
  first.Stop();
  EXPECT_FALSE(PathExists(path));
  first.Stop();  // Idempotent while nobody owns the path.

  MetricsScrapeServer second(&registry);
  ASSERT_TRUE(second.Start(path).ok());
  EXPECT_TRUE(PathExists(path));
  first.Stop();  // Must not touch the second server's socket.
  EXPECT_TRUE(PathExists(path));
  EXPECT_NE(Scrape(path, "GET /metrics HTTP/1.0\r\n\r\n")
                .find("scrape_owner_total 2"),
            std::string::npos);
  second.Stop();
  EXPECT_FALSE(PathExists(path));
}

TEST(ScrapeTest, StopDuringInFlightHealthzCompletesThenRestarts) {
  // Stop() joins the accept thread, so a /healthz request already being
  // served (the provider is mid-call) finishes with a complete response
  // before the socket is unlinked — and the server restarts cleanly on
  // the same path afterwards.
  MetricsRegistry registry;
  MetricsScrapeServer server(&registry);
  std::atomic<bool> provider_entered{false};
  server.set_health_provider([&provider_entered] {
    provider_entered.store(true);
    ::usleep(100 * 1000);  // Hold the request while Stop() races it.
    return std::string("{\"status\":\"slow_but_complete\"}");
  });
  const std::string path = TestTempPath("scrape_inflight.sock");
  ASSERT_TRUE(server.Start(path).ok());

  std::string response;
  std::thread scraper([&] {
    response = Scrape(path, "GET /healthz HTTP/1.0\r\n\r\n");
  });
  while (!provider_entered.load()) ::usleep(1000);
  server.Stop();  // Races the in-flight request; must wait it out.
  scraper.join();
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("slow_but_complete"), std::string::npos);
  EXPECT_FALSE(PathExists(path));

  // Restart on the same path serves immediately.
  ASSERT_TRUE(server.Start(path).ok());
  EXPECT_NE(Scrape(path, "GET /healthz HTTP/1.0\r\n\r\n")
                .find("slow_but_complete"),
            std::string::npos);
  server.Stop();
  EXPECT_FALSE(PathExists(path));
}

}  // namespace
}  // namespace imcat
