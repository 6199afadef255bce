#pragma once

/**
 * @file
 * The vbench_worker child's side of the rpc protocol: send Hello, then
 * serve Job frames one at a time — deserialize the SegmentJob, run
 * executeSegmentJob, and answer with a Result frame — until a Shutdown
 * frame or peer EOF. No pristine reference travels on the wire, so a
 * job validates its request, decodes the segment once, encodes,
 * decodes its output, and measures PSNR against the decoded input;
 * streams are byte-identical to an in-process run either way. The
 * Result's `seconds` covers the input decode and the encode only, so
 * the supervisor's round trip minus it still holds this child's
 * output decode and PSNR as well as the wire.
 * Single-threaded by design: one worker process is one fleet slot, and
 * the supervisor owns all concurrency.
 */

#include <string>

namespace vbench::rpc {

/**
 * Serve the supervisor on `fd` until Shutdown/EOF. Returns the
 * process exit code: 0 on clean shutdown (Shutdown frame or EOF), 2 on
 * a framing violation (logged to stderr). A malformed SegmentJob
 * payload answers with an ok=false Result carrying the structured
 * deserialize error rather than dying, so the supervisor sees the
 * protocol error in-band.
 *
 * Test hook: the VBENCH_RPC_FAKE_PROTO environment variable (an
 * integer) overrides the advertised Hello protocol version, so the
 * supervisor's handshake rejection path is reachable from a real
 * child.
 */
int runWorkerLoop(int fd);

} // namespace vbench::rpc
