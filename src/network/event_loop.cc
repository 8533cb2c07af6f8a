#include "network/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>

#include "common/thread_name.h"

namespace brdb {

EventLoop::EventLoop() = default;

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start() {
  if (running_.load()) return Status::OK();
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::Internal(std::string("epoll_create1: ") +
                            std::strerror(errno));
  }
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
    return Status::Internal(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    close(wake_fd_);
    close(epoll_fd_);
    wake_fd_ = epoll_fd_ = -1;
    return Status::Internal(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  stopping_.store(false);
  running_.store(true);
  last_tick_ =
      static_cast<uint64_t>(RealClock::Shared()->NowMicros() / kTickUs);
  thread_ = std::thread([this] {
    NameThisThread("event-loop");
    Run();
  });
  return Status::OK();
}

void EventLoop::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  Wake();
  if (thread_.joinable()) thread_.join();
  running_.store(false);
  handlers_.clear();
  want_write_.clear();
  for (auto& slot : wheel_) slot.clear();
  alive_.clear();
  timer_count_ = 0;
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    posted_.clear();
  }
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

void EventLoop::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t rc = write(wake_fd_, &one, sizeof(one));
  (void)rc;  // EAGAIN means a wake is already pending — fine either way
}

Status EventLoop::AddFd(int fd, bool want_write, FdHandler handler) {
  assert(InLoopThread());
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll add: ") + std::strerror(errno));
  }
  handlers_[fd] = std::move(handler);
  want_write_[fd] = want_write;
  return Status::OK();
}

Status EventLoop::SetWantWrite(int fd, bool want_write) {
  assert(InLoopThread());
  auto it = want_write_.find(fd);
  if (it == want_write_.end()) return Status::NotFound("fd not registered");
  if (it->second == want_write) return Status::OK();
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::Internal(std::string("epoll mod: ") + std::strerror(errno));
  }
  it->second = want_write;
  return Status::OK();
}

void EventLoop::RemoveFd(int fd) {
  assert(InLoopThread());
  if (handlers_.erase(fd) == 0) return;
  want_write_.erase(fd);
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

EventLoop::TimerId EventLoop::AddTimer(Micros delay_us,
                                       std::function<void()> fn) {
  assert(InLoopThread());
  if (delay_us < 0) delay_us = 0;
  Micros now = RealClock::Shared()->NowMicros();
  uint64_t expiry_tick =
      static_cast<uint64_t>((now + delay_us) / kTickUs) + 1;
  TimerId id = next_timer_id_++;
  wheel_[expiry_tick % kWheelSlots].push_back(
      Timer{id, expiry_tick, std::move(fn)});
  alive_.insert(id);
  ++timer_count_;
  return id;
}

void EventLoop::CancelTimer(TimerId id) {
  assert(InLoopThread());
  // Lazy cancellation: the slot entry stays (its std::function included)
  // until its tick comes around, but it will not fire.
  if (alive_.erase(id) > 0 && timer_count_ > 0) --timer_count_;
}

bool EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(post_mu_);
    if (stopping_.load() || !running_.load()) return false;
    posted_.push_back(std::move(task));
  }
  Wake();
  return true;
}

int EventLoop::EpollTimeoutMs() const {
  if (timer_count_ == 0) return -1;
  return static_cast<int>(kTickUs / 1000);
}

void EventLoop::AdvanceWheel(uint64_t now_tick) {
  if (now_tick <= last_tick_) return;
  // Visit each slot between the last processed tick and now. A stall
  // longer than a full rotation only needs one pass over every slot.
  uint64_t from = last_tick_ + 1;
  if (now_tick - last_tick_ >= kWheelSlots) {
    from = now_tick - kWheelSlots + 1;
  }
  std::vector<Timer> due;
  for (uint64_t t = from; t <= now_tick; ++t) {
    auto& slot = wheel_[t % kWheelSlots];
    for (size_t i = 0; i < slot.size();) {
      if (slot[i].expiry_tick <= now_tick) {
        if (alive_.erase(slot[i].id) > 0) {
          --timer_count_;
          due.push_back(std::move(slot[i]));
        }
        slot[i] = std::move(slot.back());
        slot.pop_back();
      } else {
        ++i;
      }
    }
  }
  last_tick_ = now_tick;
  for (auto& timer : due) timer.fn();
}

void EventLoop::Run() {
  loop_thread_id_.store(std::this_thread::get_id(),
                        std::memory_order_relaxed);
  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), EpollTimeoutMs());
    if (n < 0 && errno != EINTR) break;

    // Drain the wake counter BEFORE swapping the posted queue. A Post()
    // pushes its task and then bumps the counter; draining after the swap
    // could consume the wakeup of a task that missed the swap, leaving it
    // stranded while the next epoll_wait blocks without a timeout.
    {
      uint64_t drain;
      while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
    }

    // Posted tasks first: they may register the fds the readiness batch
    // below refers to.
    std::deque<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(post_mu_);
      tasks.swap(posted_);
    }
    for (auto& task : tasks) task();

    for (int i = 0; i < n && !stopping_.load(); ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;  // removed by an earlier handler
      uint32_t ev = 0;
      if (events[i].events & (EPOLLERR | EPOLLHUP)) ev |= kFdError;
      if (events[i].events & EPOLLIN) ev |= kFdReadable;
      if (events[i].events & EPOLLOUT) ev |= kFdWritable;
      // Copy the handler: it may RemoveFd(fd) (erasing the map entry)
      // while running.
      FdHandler handler = it->second;
      handler(ev);
    }
    if (n == static_cast<int>(events.size())) events.resize(events.size() * 2);

    AdvanceWheel(
        static_cast<uint64_t>(RealClock::Shared()->NowMicros() / kTickUs));
  }
}

}  // namespace brdb
