/**
 * @file
 * Fixed-size worker pool for independent simulation runs.
 *
 * Every bench driver's sweep is a set of embarrassingly-parallel runs:
 * each (robot x MachineSpec x tier) cell builds its own Machine, its
 * own arenas and its own RNG streams, so cells share no mutable state
 * beyond the process-wide PcTable (internally synchronised) and the
 * RunEnv snapshot (immutable); a cell's TARTAN_TIMEOUT deadline is
 * thread-local state of the worker running it (sim/watchdog.hh), and
 * RunPool's workers are the only threads the simulator starts.
 * RunPool exploits that structure the way ZSim's bound-weave phases
 * exploit core independence: submit each cell as a closure, execute up
 * to N concurrently, and consume the results in submission order so
 * every table, geomean and BENCH manifest is byte-identical to a
 * serial run.
 *
 * The worker count defaults to std::thread::hardware_concurrency and
 * is overridable via TARTAN_JOBS. TARTAN_JOBS=1 keeps the pool
 * threadless: submit() then executes the closure inline on the calling
 * thread, preserving today's exact serial behaviour (same thread, same
 * ordering, same allocation sequence).
 *
 * Exceptions thrown by a closure propagate through the returned
 * future's get(), in submission order, exactly as they would have
 * surfaced from the serial loop.
 */

#ifndef TARTAN_SIM_RUNPOOL_HH
#define TARTAN_SIM_RUNPOOL_HH

#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace tartan::sim {

/** Worker pool executing submitted closures; results via futures. */
class RunPool
{
  public:
    /** @p jobs worker threads; 1 means inline (serial) execution. */
    explicit RunPool(unsigned jobs = defaultJobs());

    /** Drains the queue, then joins the workers. */
    ~RunPool();

    RunPool(const RunPool &) = delete;
    RunPool &operator=(const RunPool &) = delete;

    /**
     * Effective worker count: $TARTAN_JOBS when set, otherwise
     * std::thread::hardware_concurrency() (at least 1).
     */
    static unsigned defaultJobs();

    unsigned jobs() const { return jobCount; }

    /**
     * Submit one run. The closure executes on a worker (or inline when
     * the pool is serial) and its result — or exception — is delivered
     * through the returned future.
     */
    template <typename Fn>
    auto
    submit(Fn fn) -> std::future<std::invoke_result_t<Fn &>>
    {
        using R = std::invoke_result_t<Fn &>;
        std::packaged_task<R()> task(std::move(fn));
        std::future<R> result = task.get_future();
        if (workers.empty()) {
            task();  // serial mode: run now, on the submitting thread
            return result;
        }
        enqueue(std::make_unique<TaskImpl<std::packaged_task<R()>>>(
            std::move(task)));
        return result;
    }

  private:
    /** Move-only type-erased task (packaged_task is not copyable). */
    struct TaskBase {
        virtual ~TaskBase() = default;
        virtual void run() = 0;
    };

    template <typename T>
    struct TaskImpl final : TaskBase {
        explicit TaskImpl(T t) : task(std::move(t)) {}
        void run() override { task(); }
        T task;
    };

    void enqueue(std::unique_ptr<TaskBase> task);
    void workerLoop();

    unsigned jobCount;
    std::vector<std::thread> workers;
    std::mutex mtx;
    std::condition_variable cv;
    std::deque<std::unique_ptr<TaskBase>> queue;
    bool stopping = false;
};

} // namespace tartan::sim

#endif // TARTAN_SIM_RUNPOOL_HH
