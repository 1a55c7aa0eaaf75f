#include "core/decouple.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "mpi/datatype.hpp"
#include "mpi/machine.hpp"
#include "mpi/rank.hpp"

namespace ds::decouple {

namespace {

/// Base for the channel ids the facade assigns (base + declaration index).
/// Offset so hand-made channels on the same parent (ids 0..) never collide
/// with a pipeline's.
constexpr std::uint64_t kChannelIdBase = 0xDC00;

/// The node-placement split: the parent ranks that are the last `per_node`
/// members, in parent-rank order, of their node (world rank / ranks per
/// node; every rank its own node when ranks_per_node <= 0), leaving every
/// node at least one unselected member. Ascending.
std::vector<int> tail_per_node(const mpi::Comm& parent, int ranks_per_node,
                               int per_node) {
  const int rpn = ranks_per_node > 0 ? ranks_per_node : 1;
  std::map<int, std::vector<int>> by_node;
  for (int r = 0; r < parent.size(); ++r)
    by_node[parent.world_rank(r) / rpn].push_back(r);
  std::vector<int> selected;
  for (const auto& [node, members] : by_node) {
    const int take = std::min(per_node, static_cast<int>(members.size()) - 1);
    selected.insert(selected.end(), members.end() - take, members.end());
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

}  // namespace

// --------------------------------------------------------------- StreamBase --

StreamBase::~StreamBase() {
  // The stream's state goes before the rank waits in the teardown
  // collective. A rank that crashes while it waits there (or that an
  // aborted run kills there) must not throw out of a destructor; its fiber
  // stays killed, so its next blocking call throws again.
  stream_ = stream::Stream{};
  try {
    if (self_ != nullptr) channel_.free(*self_);
  } catch (const mpi::RankFailure&) {
  }
}

void StreamBase::bind(mpi::Rank& self, stream::Channel channel,
                      std::size_t element_bytes, std::uint64_t stream_id) {
  self_ = &self;
  channel_ = std::move(channel);
  stream_ = stream::Stream::attach(
      channel_, mpi::Datatype::bytes(element_bytes),
      [this](const stream::StreamElement& el) { dispatch(el); }, stream_id);
}

mpi::Rank& StreamBase::self() const {
  if (self_ == nullptr)
    throw std::logic_error("decouple: stream used before Pipeline::run");
  return *self_;
}

void StreamBase::terminate() {
  if (self_ != nullptr && is_producer()) stream_.terminate(*self_);
}

std::uint64_t StreamBase::operate() { return stream_.operate(self()); }

std::uint64_t StreamBase::operate_while(
    const std::function<bool()>& keep_going) {
  return stream_.operate_while(self(), keep_going);
}

bool StreamBase::poll_one() { return stream_.poll_one(self()); }

void StreamBase::ack_durable() { stream_.ack_durable(self()); }

void StreamBase::on_durable_point(std::function<void()> hook) {
  stream_.set_durable_point(std::move(hook));
}

std::uint64_t StreamBase::drain() {
  std::uint64_t consumed = 0;
  while (poll_one()) ++consumed;
  return consumed;
}

bool StreamBase::is_producer() const { return producer_index() >= 0; }

bool StreamBase::is_consumer() const { return consumer_index() >= 0; }

int StreamBase::producer_index() const {
  return self_ == nullptr ? -1 : channel_.my_producer_index(*self_);
}

int StreamBase::consumer_index() const {
  return self_ == nullptr ? -1 : channel_.my_consumer_index(*self_);
}

void StreamBase::send_raw(mpi::SendBuf element) {
  stream_.isend(self(), element);
}

void StreamBase::send_raw_to(int consumer, mpi::SendBuf element) {
  stream_.isend_to(self(), consumer, element);
}

// ---------------------------------------------------------------- RawStream --

void RawStream::send(const void* data, std::size_t bytes) {
  send_raw(mpi::SendBuf{data, bytes, 0});
}

void RawStream::send_synthetic(std::size_t wire_bytes) {
  send_raw(mpi::SendBuf::synthetic(wire_bytes));
}

// ------------------------------------------------------------------ Context --

mpi::Rank& Context::self() const noexcept { return *pipeline_->self_; }

const mpi::Comm& Context::parent() const noexcept { return pipeline_->parent_; }

int Context::parent_rank() const noexcept {
  return self().rank_in(pipeline_->parent_);
}

int Context::stage_index() const noexcept {
  return pipeline_->stage_of(parent_rank());
}

int Context::member_index(int stage) const noexcept {
  return pipeline_->group(stage).rank_of(parent_rank());
}

int Context::stage_member_index() const noexcept {
  const int stage = stage_index();
  return stage < 0 ? -1 : member_index(stage);
}

int Context::stage_size(int stage) const {
  return static_cast<int>(stage_ranks(stage).size());
}

int Context::stage_size(StageHandle stage) const {
  return stage_size(stage.index_);
}

const std::vector<int>& Context::stage_ranks(int stage) const {
  if (stage < 0 || stage >= static_cast<int>(pipeline_->stages_.size()))
    throw std::logic_error("decouple: stage index out of range");
  return pipeline_->group(stage).members();
}

int Context::worker_index() const noexcept { return member_index(0); }

int Context::helper_index() const noexcept { return member_index(1); }

int Context::worker_count() const noexcept {
  return pipeline_->group(0).size();
}

int Context::helper_count() const noexcept {
  return pipeline_->group(1).size();
}

int Context::helper_of(int worker) const noexcept {
  return stream::Channel::block_route(worker, worker_count(), helper_count());
}

const mpi::Comm& Context::worker_comm() const {
  if (!pipeline_->want_worker_comm_)
    throw std::logic_error(
        "decouple: worker_comm() requires Pipeline::with_worker_comm()");
  return pipeline_->worker_comm_;
}

StreamBase& Context::slot(int index) const {
  if (index < 0 || index >= static_cast<int>(pipeline_->slots_.size()))
    throw std::logic_error("decouple: stream handle not from this pipeline");
  const auto& stream = pipeline_->slots_[static_cast<std::size_t>(index)].stream;
  if (!stream)
    throw std::logic_error(
        "decouple: this rank is in neither stage the stream links");
  return *stream;
}

// ----------------------------------------------------------------- Pipeline --

Pipeline::Pipeline(mpi::Rank& self, mpi::Comm parent)
    : self_(&self), parent_(std::move(parent)) {}

Pipeline Pipeline::over(mpi::Rank& self, const mpi::Comm& parent) {
  if (self.rank_in(parent) < 0)
    throw std::logic_error("Pipeline::over: caller not in parent communicator");
  return Pipeline(self, parent);
}

void Pipeline::set_split(std::vector<int> helpers) {
  if (!stages_.empty())
    throw std::logic_error(
        split_ ? "Pipeline: split already configured"
               : "Pipeline: declare a split or stages, not both");
  std::sort(helpers.begin(), helpers.end());
  helpers.erase(std::unique(helpers.begin(), helpers.end()), helpers.end());
  // Workers are the complement: one merge pass against the sorted helpers.
  std::vector<int> workers;
  auto next_helper = helpers.begin();
  for (int r = 0; r < parent_.size(); ++r) {
    if (next_helper != helpers.end() && *next_helper == r)
      ++next_helper;
    else
      workers.push_back(r);
  }
  if (workers.empty() || helpers.empty())
    throw std::invalid_argument(
        "Pipeline: need at least one worker and one helper");
  stages_.emplace_back(std::move(workers));
  stages_.emplace_back(std::move(helpers));
  split_ = true;
}

Pipeline& Pipeline::with_stride(int stride) & {
  return with_plan(stream::GroupPlan::interleaved(parent_, stride));
}

Pipeline& Pipeline::with_plan(const stream::GroupPlan& plan) & {
  set_split(plan.helpers());
  return *this;
}

Pipeline& Pipeline::with_helper_ranks(std::vector<int> helpers) & {
  for (const int h : helpers)
    if (h < 0 || h >= parent_.size())
      throw std::invalid_argument(
          "Pipeline::with_helper_ranks: rank outside the parent communicator");
  set_split(std::move(helpers));
  return *this;
}

Pipeline& Pipeline::with_node_placement(int helpers_per_node) & {
  if (helpers_per_node < 1)
    throw std::invalid_argument(
        "Pipeline::with_node_placement: helpers_per_node must be >= 1");
  std::vector<int> helpers =
      tail_per_node(parent_, self_->machine().config().network.ranks_per_node,
                    helpers_per_node);
  if (helpers.empty())
    throw std::invalid_argument(
        "Pipeline::with_node_placement: no node hosts two members of the "
        "parent communicator (nothing to co-locate)");
  set_split(std::move(helpers));
  return *this;
}

Pipeline& Pipeline::with_worker_comm() & {
  want_worker_comm_ = true;
  return *this;
}

Pipeline& Pipeline::with_resilience(std::uint32_t checkpoint_interval) & {
  if (checkpoint_interval == 0)
    throw std::invalid_argument(
        "Pipeline::with_resilience: checkpoint_interval must be > 0 "
        "(resilience without epochs would retain unboundedly)");
  checkpoint_interval_ = checkpoint_interval;
  return *this;
}

StageHandle Pipeline::split_stage(int index) const {
  if (!split_)
    throw std::logic_error(
        "Pipeline: declare a split first (with_stride / with_plan / "
        "with_helper_ranks / with_node_placement)");
  return StageHandle(index);
}

int Pipeline::add_slot(StageHandle from, StageHandle to, StreamFactory make,
                       std::size_t element_bytes, StreamOptions options) {
  if (ran_)
    throw std::logic_error("Pipeline: streams must be declared before run()");
  const auto stage_count = static_cast<int>(stages_.size());
  if (from.index_ < 0 || from.index_ >= stage_count || to.index_ < 0 ||
      to.index_ >= stage_count)
    throw std::logic_error(
        "decouple: stream_between needs handles from this pipeline's stages");
  if (from.index_ == to.index_)
    throw std::invalid_argument(
        "decouple: a stage cannot stream to itself (groups must be disjoint)");
  const int me = self_->rank_in(parent_);
  const bool endpoint =
      group(from.index_).contains(me) || group(to.index_).contains(me);
  slots_.push_back(Slot{endpoint ? make() : nullptr, element_bytes,
                        std::move(options), from.index_, to.index_});
  return static_cast<int>(slots_.size()) - 1;
}

RawStreamHandle Pipeline::raw_stream_between(StageHandle from, StageHandle to,
                                             std::size_t element_bytes,
                                             StreamOptions options) {
  return RawStreamHandle(add_slot(
      from, to,
      []() -> std::unique_ptr<StreamBase> { return std::make_unique<RawStream>(); },
      element_bytes, std::move(options)));
}

StageHandle Pipeline::stage(std::vector<int> parent_ranks) {
  if (ran_)
    throw std::logic_error("Pipeline: stages must be declared before run()");
  if (split_)
    throw std::logic_error("Pipeline: declare a split or stages, not both");
  if (!std::is_sorted(parent_ranks.begin(), parent_ranks.end()))
    std::sort(parent_ranks.begin(), parent_ranks.end());
  parent_ranks.erase(std::unique(parent_ranks.begin(), parent_ranks.end()),
                     parent_ranks.end());
  if (parent_ranks.empty())
    throw std::invalid_argument("Pipeline::stage: stage must not be empty");
  for (const int r : parent_ranks) {
    if (r < 0 || r >= parent_.size())
      throw std::invalid_argument(
          "Pipeline::stage: rank outside the parent communicator");
    if (stage_of(r) >= 0)
      throw std::invalid_argument(
          "Pipeline::stage: stages must be pairwise disjoint");
  }
  stages_.emplace_back(std::move(parent_ranks));
  return StageHandle(static_cast<int>(stages_.size()) - 1);
}

StageHandle Pipeline::stage(const RolePredicate& member) {
  if (!member) throw std::invalid_argument("Pipeline::stage: empty predicate");
  std::vector<int> ranks;
  for (int r = 0; r < parent_.size(); ++r)
    if (member(r)) ranks.push_back(r);
  return stage(std::move(ranks));
}

int Pipeline::stage_of(int parent_rank) const noexcept {
  for (std::size_t i = 0; i < stages_.size(); ++i)
    if (stages_[i].contains(parent_rank)) return static_cast<int>(i);
  return -1;
}

void Pipeline::run(const RoleFn& worker_fn, const RoleFn& helper_fn) {
  run_stages({worker_fn, helper_fn});
}

void Pipeline::run_stages(const std::vector<RoleFn>& stage_fns) {
  if (stages_.size() < 2)
    throw std::logic_error(
        "Pipeline: declare a split (with_stride / with_plan / "
        "with_helper_ranks / with_node_placement) or at least two stages "
        "before running");
  if (stage_fns.size() != stages_.size())
    throw std::invalid_argument(
        "Pipeline::run_stages: need exactly one function per declared stage");
  if (ran_) throw std::logic_error("Pipeline: pipeline already ran");
  ran_ = true;

  mpi::Rank& self = *self_;
  const int me = self.rank_in(parent_);

  // A restarted incarnation rejoins a pipeline whose surviving members are
  // mid-run: no collective step can happen (peers are not at a matching
  // call). Channels are re-derived locally via Channel::attach from the
  // same stage membership every rank used at first launch.
  const bool rejoining = self.machine().incarnation(self.world_rank()) > 0;
  if (rejoining && want_worker_comm_)
    throw std::logic_error(
        "Pipeline: a restarted rank cannot rejoin a pipeline configured "
        "with_worker_comm (communicator splits are collective)");

  if (want_worker_comm_)
    worker_comm_ = self.split(parent_, group(0).contains(me) ? 0 : -1, me);

  // Channel creation is collective over the parent: declaration order is the
  // creation order on every rank. Rejoining ranks attach instead. A rank in
  // neither of a stream's stages gets an inert handle and drops it.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    stream::ChannelConfig config = slot.options;
    config.channel_id = kChannelIdBase + i;
    if (config.checkpoint_interval == 0)
      config.checkpoint_interval = checkpoint_interval_;
    const mpi::Group& producers = group(slot.from);
    const mpi::Group& consumers = group(slot.to);
    stream::Channel channel;
    if (rejoining) {
      if (!config.resilient())
        throw std::logic_error(
            "Pipeline: a restarted rank can only rejoin resilient streams "
            "(set checkpoint_interval or with_resilience)");
      if (slot.stream)
        channel = stream::Channel::attach(
            self, parent_,
            [&](int r) -> std::int8_t {
              return producers.contains(r) ? 1 : (consumers.contains(r) ? 2 : 0);
            },
            std::move(config));
    } else {
      channel = stream::Channel::create(self, parent_, producers.contains(me),
                                        consumers.contains(me), std::move(config));
    }
    if (slot.stream)
      slot.stream->bind(self, std::move(channel), slot.element_bytes,
                        /*stream_id=*/i + 1);
  }

  Context context(*this);
  const int my_stage = stage_of(me);
  if (my_stage >= 0) {
    const RoleFn& stage_fn = stage_fns[static_cast<std::size_t>(my_stage)];
    if (stage_fn) stage_fn(context);
  }

  // RAII half of the termination protocol: whatever this rank produced is
  // now over; consumers' operate() unblocks as the terms land. In a chain
  // this is what propagates termination stage to stage.
  for (Slot& slot : slots_)
    if (slot.stream) slot.stream->terminate();
}

}  // namespace ds::decouple
