#include "sampler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <sys/time.h>
#include <ucontext.h>

#include "common/log.h"

namespace mcbench {

struct Sampler::State
{
    /** Executable text range and load address. */
    std::uintptr_t textLo = 0, textHi = 0, base = 0;

    std::size_t capacity = 0;
    std::unique_ptr<std::uintptr_t[]> frames; ///< capacity x kMaxFrames
    std::unique_ptr<std::uint8_t[]> depth;
    std::unique_ptr<bool[]> leafInExe;
    std::atomic<std::size_t> next{0};

    struct sigaction previous
    {};

    bool
    inExe(std::uintptr_t pc) const
    {
        return pc >= textLo && pc < textHi;
    }
};

namespace {

Sampler::State* g_state = nullptr;

int
findExecutable(dl_phdr_info* info, std::size_t, void* data)
{
    // The first object dl_iterate_phdr reports is the executable.
    auto* st = static_cast<Sampler::State*>(data);
    st->base = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const ElfW(Phdr)& ph = info->dlpi_phdr[i];
        if (ph.p_type != PT_LOAD || !(ph.p_flags & PF_X))
            continue;
        const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
        const std::uintptr_t hi = lo + ph.p_memsz;
        if (st->textLo == 0 || lo < st->textLo)
            st->textLo = lo;
        if (hi > st->textHi)
            st->textHi = hi;
    }
    return 1;
}

void
onProf(int, siginfo_t*, void* context)
{
    const int saved_errno = errno;
    Sampler::State* st = g_state;
    const auto* uc = static_cast<const ucontext_t*>(context);
    const auto pc =
        static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);

    const std::size_t slot =
        st->next.fetch_add(1, std::memory_order_relaxed);
    if (slot >= st->capacity) {
        st->next.store(st->capacity, std::memory_order_relaxed);
        errno = saved_errno;
        return;
    }

    // The unwind starts in this handler and crosses the signal frame;
    // the interrupted PC appears as-is, its callers above it.
    void* raw[64];
    const int n = backtrace(raw, 64);
    int i = 0;
    while (i < n && reinterpret_cast<std::uintptr_t>(raw[i]) != pc)
        ++i;

    std::uintptr_t* out = &st->frames[slot * Sampler::kMaxFrames];
    int k = 0;
    st->leafInExe[slot] = st->inExe(pc);
    if (st->leafInExe[slot])
        out[k++] = pc - st->base;
    for (int j = i + 1; j < n && k < Sampler::kMaxFrames; ++j) {
        const auto ret = reinterpret_cast<std::uintptr_t>(raw[j]);
        if (st->inExe(ret))
            out[k++] = ret - 1 - st->base;
    }
    st->depth[slot] = static_cast<std::uint8_t>(k);
    errno = saved_errno;
}

void
setTimer(int interval_us)
{
    itimerval tv{};
    tv.it_interval.tv_sec = interval_us / 1000000;
    tv.it_interval.tv_usec = interval_us % 1000000;
    tv.it_value = tv.it_interval;
    if (setitimer(ITIMER_PROF, &tv, nullptr) != 0)
        mcdsm_fatal("setitimer: %s", std::strerror(errno));
}

} // namespace

Sampler::Sampler(std::size_t capacity) : state_(std::make_unique<State>())
{
    mcdsm_assert(g_state == nullptr, "only one Sampler may exist");
    State& st = *state_;
    dl_iterate_phdr(findExecutable, &st);
    mcdsm_assert(st.textHi > st.textLo, "no executable text segment");
    st.capacity = capacity;
    st.frames.reset(new std::uintptr_t[capacity * kMaxFrames]);
    st.depth.reset(new std::uint8_t[capacity]);
    st.leafInExe.reset(new bool[capacity]);

    // The first backtrace() loads the unwinder library; do it here,
    // not inside the signal handler.
    void* warm[4];
    backtrace(warm, 4);

    g_state = &st;
    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, &st.previous) != 0)
        mcdsm_fatal("sigaction: %s", std::strerror(errno));
}

Sampler::~Sampler()
{
    stop();
    sigaction(SIGPROF, &state_->previous, nullptr);
    g_state = nullptr;
}

void
Sampler::start(int interval_us)
{
    setTimer(interval_us);
}

void
Sampler::stop()
{
    setTimer(0);
}

std::size_t
Sampler::samples() const
{
    return std::min(state_->next.load(), state_->capacity);
}

bool
Sampler::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const State& st = *state_;
    for (std::size_t s = 0; s < samples(); ++s) {
        std::fputs(st.leafInExe[s] ? "L" : "C", f);
        const std::uintptr_t* fr = &st.frames[s * kMaxFrames];
        for (int k = 0; k < st.depth[s]; ++k)
            std::fprintf(f, " %zx", static_cast<std::size_t>(fr[k]));
        std::fputc('\n', f);
    }
    return std::fclose(f) == 0;
}

} // namespace mcbench
