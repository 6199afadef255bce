/**
 * @file
 * Runtime kernel dispatch: pick the widest ISA the host CPU and the
 * build both support, unless VBENCH_ISA pins a level. Resolution
 * happens exactly once per process, on the first ops() call, which
 * then stays an inline load of detail::g_active; tests use
 * ScopedKernelIsa to swap the table in-process afterwards.
 */

#include "kernels/kernel_ops.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/runtime_config.h"

namespace vbench::kernels {

namespace {

/** Widest level the host CPU supports among the compiled backends. */
Isa
detectHostIsa()
{
#if defined(__x86_64__) || defined(__i386__)
    if (avx2Ops() != nullptr && __builtin_cpu_supports("avx2"))
        return Isa::Avx2;
    if (sse2Ops() != nullptr && __builtin_cpu_supports("sse2"))
        return Isa::Sse2;
#endif
    return Isa::Scalar;
}

const KernelOps *
resolve()
{
    Isa level = detectHostIsa();
    // core::RuntimeConfig already validated the spelling (an unknown
    // name fails fast with a message there); what remains here is the
    // host capability check, which degrades with a warning — the value
    // is well-formed, this machine just cannot honor it.
    if (const std::string &env = core::runtimeConfig().isa;
        !env.empty()) {
        if (const auto requested = parseIsaName(env)) {
            if (*requested <= level) {
                level = *requested;
            } else {
                std::fprintf(stderr,
                             "vbench: VBENCH_ISA=%s not available on "
                             "this host/build, using %s\n",
                             env.c_str(), isaName(level));
            }
        }
    }
    const KernelOps *table = opsFor(level);
    return table != nullptr ? table : scalarOps();
}

} // namespace

namespace detail {

std::atomic<const KernelOps *> g_active{nullptr};

const KernelOps *
resolveActive()
{
    // The function-local static makes resolution (and its one
    // VBENCH_ISA warning) happen once even if threads race here; the
    // store publishes it for ops()'s fast path. A ScopedKernelIsa
    // always resolves first, so this never undoes one.
    static const KernelOps *const resolved = [] {
        const KernelOps *table = resolve();
        g_active.store(table, std::memory_order_release);
        return table;
    }();
    return resolved;
}

} // namespace detail

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Sse2:
        return "sse2";
    case Isa::Avx2:
        return "avx2";
    }
    return "scalar";
}

Isa
activeIsa()
{
    return ops().isa;
}

Isa
detectBestIsa()
{
    return detectHostIsa();
}

const KernelOps *
opsFor(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return scalarOps();
    case Isa::Sse2:
#if defined(__x86_64__) || defined(__i386__)
        if (sse2Ops() != nullptr && __builtin_cpu_supports("sse2"))
            return sse2Ops();
#endif
        return nullptr;
    case Isa::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        if (avx2Ops() != nullptr && __builtin_cpu_supports("avx2"))
            return avx2Ops();
#endif
        return nullptr;
    }
    return nullptr;
}

std::optional<Isa>
parseIsaName(std::string_view name)
{
    std::string lower(name);
    for (char &c : lower)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    if (lower == "scalar")
        return Isa::Scalar;
    if (lower == "sse2")
        return Isa::Sse2;
    if (lower == "avx2")
        return Isa::Avx2;
    if (lower == "native")
        return detectBestIsa();
    return std::nullopt;
}

ScopedKernelIsa::ScopedKernelIsa(Isa isa) : saved_(&ops())
{
    const KernelOps *table = opsFor(isa);
    detail::g_active.store(table != nullptr ? table : scalarOps(),
                           std::memory_order_release);
}

ScopedKernelIsa::~ScopedKernelIsa()
{
    detail::g_active.store(saved_, std::memory_order_release);
}

} // namespace vbench::kernels
