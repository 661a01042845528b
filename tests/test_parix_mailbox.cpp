// Direct tests of the mailbox, message payloads and failure paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "parix/mailbox.h"
#include "parix/message.h"
#include "parix/runtime.h"
#include "support/error.h"

namespace {

using namespace skil::parix;

TEST(PayloadBytes, TrivialAndVectorSizes) {
  EXPECT_EQ(payload_bytes(42), sizeof(int));
  EXPECT_EQ(payload_bytes(3.14), sizeof(double));
  struct Rec {
    double a;
    int b;
  };
  EXPECT_EQ(payload_bytes(Rec{1.0, 2}), sizeof(Rec));
  std::vector<double> v(10);
  EXPECT_EQ(payload_bytes(v), 10 * sizeof(double) + 8);
  std::vector<std::vector<int>> vv{{1, 2}, {3}};
  EXPECT_EQ(payload_bytes(vv), 8 + (2 * sizeof(int) + 8) + (sizeof(int) + 8));
  EXPECT_EQ(payload_bytes(std::string("abc")), 3 + 8);
}

TEST(PayloadBytes, VectorOfStringsSumsElementPayloads) {
  // The generic non-trivial-element overload must sum the elements'
  // own payload_bytes (it used to fall through to the sizeof-based
  // formula, pricing a vector<string> by the string header size).
  std::vector<std::string> names{"ab", "", "cdef"};
  EXPECT_EQ(payload_bytes(names), 8 + (2 + 8) + (0 + 8) + (4 + 8));
  std::vector<std::vector<std::string>> nested{{"x"}, {"yz", "w"}};
  EXPECT_EQ(payload_bytes(nested),
            8 + (8 + (1 + 8)) + (8 + (2 + 8) + (1 + 8)));
}

TEST(PayloadBytes, VectorOfStringsTravelsWithSummedSize) {
  Message msg = make_message<std::vector<std::string>>(
      0, 1, {"hello", "world"}, 0.0);
  EXPECT_EQ(msg.bytes, 8 + (5 + 8) + (5 + 8));
  const auto payload = take_payload<std::vector<std::string>>(msg);
  EXPECT_EQ(payload, (std::vector<std::string>{"hello", "world"}));
}

TEST(Message, RoundTripPreservesPayload) {
  Message msg = make_message<std::vector<int>>(3, 7, {1, 2, 3}, 99.0);
  EXPECT_EQ(msg.src, 3);
  EXPECT_EQ(msg.tag, 7);
  EXPECT_DOUBLE_EQ(msg.arrival_vtime, 99.0);
  EXPECT_TRUE(*msg.type == typeid(std::vector<int>));
  const auto payload = take_payload<std::vector<int>>(msg);
  EXPECT_EQ(payload, (std::vector<int>{1, 2, 3}));
}

TEST(Mailbox, MatchesOnSourceAndTag) {
  Mailbox box;
  box.put(make_message<int>(0, 1, 100, 0.0));
  box.put(make_message<int>(1, 1, 200, 0.0));
  box.put(make_message<int>(0, 2, 300, 0.0));
  Message m = box.get(1, 1);
  EXPECT_EQ(take_payload<int>(m), 200);
  m = box.get(0, 2);
  EXPECT_EQ(take_payload<int>(m), 300);
  m = box.get(0, 1);
  EXPECT_EQ(take_payload<int>(m), 100);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, FifoPerSourceAndTag) {
  Mailbox box;
  for (int i = 0; i < 5; ++i) box.put(make_message<int>(0, 9, i, 0.0));
  for (int i = 0; i < 5; ++i) {
    Message m = box.get(0, 9);
    EXPECT_EQ(take_payload<int>(m), i);
  }
}

TEST(Mailbox, FlatQueueKeepsPerKeyOrderUnderMixedTakes) {
  // Hundreds of messages over 3 sources x 4 tags, interleaved, taken
  // key by key while more arrive.  A model of the queue in arrival
  // order says where each take finds its match: at the head, or
  // further in, which moves the messages before it.
  constexpr int kTags = 4;
  constexpr int kKeys = 3 * kTags;
  const auto src_of = [](int key) { return key / kTags; };
  const auto tag_of = [](int key) { return 100L + key % kTags; };
  Mailbox box;
  std::vector<int> model;  // the key of every queued message, oldest first
  std::array<int, kKeys> sent{};
  std::array<int, kKeys> taken{};
  int head_takes = 0;
  int middle_takes = 0;
  std::uint64_t state = 20261019;
  const auto next = [&state](int bound) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    return static_cast<int>((state >> 33) % static_cast<std::uint64_t>(bound));
  };
  const auto put = [&](int key) {
    box.put(make_message<int>(src_of(key), tag_of(key), sent[key]++, 0.0));
    model.push_back(key);
  };
  const auto take = [&](int key) {
    const auto pos = std::find(model.begin(), model.end(), key);
    ASSERT_NE(pos, model.end());
    ++(pos == model.begin() ? head_takes : middle_takes);
    model.erase(pos);
    Message m = box.get(src_of(key), tag_of(key), std::chrono::seconds(1));
    EXPECT_EQ(m.src, src_of(key));
    EXPECT_EQ(m.tag, tag_of(key));
    EXPECT_EQ(take_payload<int>(m), taken[key]++) << "key " << key;
  };

  for (int i = 0; i < 300; ++i) put(next(kKeys));
  EXPECT_EQ(box.pending(), model.size());
  // Take the oldest message or any key's, putting 0-2 more between
  // takes, until the queue has turned over several times.
  for (int step = 0; step < 900 && !model.empty(); ++step) {
    take(next(2) == 0 ? model.front() : model[next(static_cast<int>(model.size()))]);
    for (int more = next(3); more > 0; --more) put(next(kKeys));
    ASSERT_EQ(box.pending(), model.size()) << "after step " << step;
  }
  // Drain key by key from the last key down: mostly middle takes.
  for (int key = kKeys - 1; key >= 0; --key) {
    while (std::find(model.begin(), model.end(), key) != model.end()) {
      take(key);
      ASSERT_EQ(box.pending(), model.size());
    }
  }
  EXPECT_EQ(box.pending(), 0u);
  EXPECT_GT(head_takes, 100);
  EXPECT_GT(middle_takes, 100);
  for (int key = 0; key < kKeys; ++key) EXPECT_EQ(taken[key], sent[key]);
  // The emptied queue still delivers.
  put(5);
  put(1);
  take(1);
  take(5);
  EXPECT_EQ(box.pending(), 0u);
}

TEST(Mailbox, GetTimesOutWhenNothingMatches) {
  Mailbox box;
  box.put(make_message<int>(0, 1, 7, 0.0));
  EXPECT_THROW(box.get(0, 2, std::chrono::milliseconds(50)),
               skil::support::RuntimeFault);
  EXPECT_EQ(box.pending(), 1u);  // the non-matching message stays queued
}

TEST(Mailbox, PoisonWakesBlockedReceiver) {
  Mailbox box;
  std::thread poisoner([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.poison("test poison");
  });
  try {
    box.get(0, 1, std::chrono::seconds(10));
    FAIL() << "expected RuntimeFault";
  } catch (const skil::support::RuntimeFault& e) {
    EXPECT_NE(std::string(e.what()).find("test poison"), std::string::npos);
  }
  poisoner.join();
}

TEST(Mailbox, BlockedGetWakesWhenMessageArrives) {
  Mailbox box;
  std::thread sender([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.put(make_message<int>(2, 5, 77, 1.0));
  });
  Message m = box.get(2, 5, std::chrono::seconds(10));
  EXPECT_EQ(take_payload<int>(m), 77);
  sender.join();
}

TEST(SelfSend, ProcessorCanMessageItself) {
  RunConfig config{2, CostModel::t800()};
  spmd_run(config, [](Proc& proc) {
    proc.send<int>(proc.id(), 4, proc.id() * 10);
    EXPECT_EQ(proc.recv<int>(proc.id(), 4), proc.id() * 10);
  });
}

TEST(LinkOccupancy, BackToBackArrivalsSerialise) {
  // Two large messages sent "simultaneously" to one processor cannot
  // both finish arriving at the same instant: the second is delayed by
  // its own transfer time on the receiver's links.
  const CostModel cm = CostModel::t800();
  RunConfig config{3, cm};
  spmd_run(config, [&](Proc& proc) {
    const std::size_t bytes = 100000;
    if (proc.id() != 0) {
      proc.send<std::vector<char>>(0, 1, std::vector<char>(bytes));
    } else {
      proc.recv<std::vector<char>>(1, 1);
      const double after_first = proc.vtime();
      proc.recv<std::vector<char>>(2, 1);
      EXPECT_GE(proc.vtime() - after_first,
                cm.msg_per_byte_us * static_cast<double>(bytes));
    }
  });
}

TEST(SendModes, AsyncBeatsSyncForTheSender) {
  const CostModel cm = CostModel::t800();
  RunConfig config{2, cm};
  spmd_run(config, [&](Proc& proc) {
    if (proc.id() == 0) {
      std::vector<char> big(50000);
      proc.send_mode<std::vector<char>>(1, 1, big, SendMode::kAsync);
      const double async_done = proc.vtime();
      proc.send_mode<std::vector<char>>(1, 2, big, SendMode::kSync);
      const double sync_cost = proc.vtime() - async_done;
      EXPECT_GT(sync_cost, 10 * async_done);
    } else {
      proc.recv<std::vector<char>>(0, 1);
      proc.recv<std::vector<char>>(0, 2);
    }
  });
}

}  // namespace
