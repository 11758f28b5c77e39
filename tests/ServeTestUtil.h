//===- tests/ServeTestUtil.h - In-process compile-server harness -*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test harness for driver/Serve.h: an in-process CompileServer whose
/// clients connect over socketpairs — no filesystem socket, no subprocess,
/// and full control of both stream ends, so tests can cut a connection
/// mid-frame, pipeline requests, or inject wire faults deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_TESTS_SERVETESTUTIL_H
#define GCA_TESTS_SERVETESTUTIL_H

#include "driver/Serve.h"
#include "support/Frame.h"
#include "support/Json.h"

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace gca {
namespace servetest {

/// An in-process CompileServer serving socketpair connections. connect()
/// and disconnect() may be called from any number of client threads at once.
class TestServer {
public:
  explicit TestServer(ServerConfig Config) : Server(std::move(Config)) {}

  ~TestServer() {
    Server.requestDrain();
    for (Pump &P : Pumps)
      if (P.Thread.joinable())
        P.Thread.join();
    Server.wait();
  }

  /// Opens a new client connection; returns the client-side fd, which the
  /// caller closes — with disconnect() when it needs the server to have
  /// finished with the connection. The server end is pumped by a dedicated
  /// thread, exactly like a connection accepted off the listening socket; it
  /// closes its fd when the connection ends, so clients observe a real EOF.
  int connect() {
    int SV[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, SV) != 0)
      return -1;
    std::lock_guard<std::mutex> Lock(Mu);
    Pumps.push_back({SV[1], std::thread([this, Fd = SV[0]] {
                       Server.serveConnection(Fd, Fd);
                       ::close(Fd);
                     })});
    return SV[1];
  }

  /// Closes client fd \p Fd (returned by connect()) and joins the thread
  /// serving it. On return the server has torn the connection down, so its
  /// accounting (connections-active, say) no longer counts it; a bare
  /// ::close() only delivers EOF and returns before that happens.
  void disconnect(int Fd) {
    std::thread Served;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      // Looked up while Fd is still open: the newest connection holding the
      // number owns it; older entries are connections closed with ::close()
      // whose fd number has since been reused.
      for (auto It = Pumps.rbegin(); It != Pumps.rend(); ++It)
        if (It->ClientFd == Fd && It->Thread.joinable()) {
          Served = std::move(It->Thread);
          break;
        }
    }
    ::close(Fd);
    if (Served.joinable())
      Served.join();
  }

  CompileServer &server() { return Server; }

private:
  struct Pump {
    int ClientFd;
    std::thread Thread;
  };

  CompileServer Server;
  std::mutex Mu; ///< Guards Pumps.
  std::vector<Pump> Pumps;
};

/// Reads one response frame and parses it. Null on any failure.
inline JsonValue recvJson(int Fd) {
  std::string Wire;
  if (readFrame(Fd, Wire) != FrameStatus::Ok)
    return JsonValue::makeNull();
  JsonValue Doc;
  std::string Err;
  if (!JsonValue::parse(Wire, Doc, Err))
    return JsonValue::makeNull();
  return Doc;
}

/// Sends \p Payload as a frame and reads one parsed response. Null on any
/// transport or parse failure.
inline JsonValue sendRecv(int Fd, const std::string &Payload) {
  if (writeFrame(Fd, Payload) != FrameStatus::Ok)
    return JsonValue::makeNull();
  return recvJson(Fd);
}

inline std::string status(const JsonValue &Resp) {
  const JsonValue *S = Resp.get("status");
  return S && S->isString() ? S->stringValue() : std::string();
}

inline std::string output(const JsonValue &Resp) {
  const JsonValue *O = Resp.get("output");
  return O && O->isString() ? O->stringValue() : std::string();
}

inline int64_t respId(const JsonValue &Resp) {
  const JsonValue *I = Resp.get("id");
  return I ? I->intValue(-1) : -1;
}

/// True when \p Fd becomes readable within \p TimeoutMs (fuzz harness: a
/// mutated frame may legitimately earn no response, and the client must not
/// block forever waiting for one).
inline bool readableWithin(int Fd, int TimeoutMs) {
  struct pollfd P = {Fd, POLLIN, 0};
  return ::poll(&P, 1, TimeoutMs) > 0 &&
         (P.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

} // namespace servetest
} // namespace gca

#endif // GCA_TESTS_SERVETESTUTIL_H
