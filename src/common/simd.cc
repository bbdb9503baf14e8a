#include "common/simd.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/packed_pht.hh"

#if defined(__x86_64__) || defined(__i386__)
#define BPSIM_SIMD_X86 1
// GCC 12's AVX-512 intrinsics seed their pass-through operand with a
// self-initialised `__Y = __Y`, which -Wmaybe-uninitialized flags at
// every inlined use (GCC bug 105593, fixed in GCC 13).  The diagnostic
// points into the header, so silencing it for the header alone leaves
// the check on for this file's own code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif

namespace bpsim {

namespace {

/** The next narrower concrete target (clamping order). */
SimdTarget
narrower(SimdTarget target)
{
    switch (target) {
      case SimdTarget::AVX512: return SimdTarget::AVX2;
      case SimdTarget::AVX2: return SimdTarget::SSE2;
      default: return SimdTarget::Scalar;
    }
}

/**
 * Lenient BPSIM_SIMD read for the resolve path: Auto for unset or
 * unrecognised.  A kernel deep inside a sweep must not abort on a
 * typo'd environment; boundaries surface the structured error via
 * simdEnvStatus() instead.
 */
SimdTarget
parseEnvTarget()
{
    const char *env = std::getenv("BPSIM_SIMD");
    if (!env || !*env)
        return SimdTarget::Auto;
    const Result<SimdTarget> parsed = parseSimdTargetName(env);
    if (!parsed.ok()) {
        bpsim_warn("ignoring BPSIM_SIMD: ",
                   parsed.error().message());
        return SimdTarget::Auto;
    }
    return parsed.value();
}

/** Cached environment override (read once, first use). */
SimdTarget
envTarget()
{
    static const SimdTarget cached = parseEnvTarget();
    return cached;
}

// ---------------------------------------------------------------------
// Scalar kernels: the reference semantics every vector variant is held
// to.  The replay loop is exactly the PR 3 fused inner loop.

void
replayLaneBatchScalar(const std::uint32_t *records, std::size_t n,
                      LaneBatch &batch)
{
    for (unsigned l = 0; l < batch.lanes; ++l) {
        std::uint8_t *bytes = batch.pht[l];
        const std::uint32_t total_mask = batch.totalMask[l];
        std::uint64_t misses = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint32_t rc = records[i];
            misses += PackedPht::predictAndUpdateRaw(
                bytes, rc & total_mask, rc >> 31);
        }
        batch.misses[l] += misses;
    }
}

/**
 * The perceptron reference kernel: the semantics of
 * PerceptronModel::step over a pre-hashed index stream, one lane at a
 * time.  Every vector variant below is held to this loop bit for bit.
 */
void
replayPerceptronBatchScalar(const std::uint32_t *idx,
                            const std::uint8_t *taken, std::size_t n,
                            PerceptronBatch &batch)
{
    const unsigned tables = batch.tables;
    const std::size_t stride =
        static_cast<std::size_t>(tables) * PerceptronBatch::kMaxLanes;
    for (unsigned l = 0; l < batch.lanes; ++l) {
        std::int8_t *bank = batch.weights[l];
        const int theta = batch.theta[l];
        std::uint64_t misses = 0;
        const std::uint32_t *row = idx + l;
        for (std::size_t i = 0; i < n; ++i, row += stride) {
            int sum = 0;
            for (unsigned t = 0; t < tables; ++t)
                sum += bank[row[t * PerceptronBatch::kMaxLanes]];
            const bool pred = sum >= 0;
            const bool tk = taken[i] != 0;
            misses += pred != tk;
            const int magnitude = sum < 0 ? -sum : sum;
            if (pred != tk || magnitude <= theta) {
                const int delta = tk ? 1 : -1;
                for (unsigned t = 0; t < tables; ++t) {
                    std::int8_t &w =
                        bank[row[t * PerceptronBatch::kMaxLanes]];
                    int next = w + delta;
                    if (next > PerceptronBatch::kWeightMax)
                        next = PerceptronBatch::kWeightMax;
                    if (next < PerceptronBatch::kWeightMin)
                        next = PerceptronBatch::kWeightMin;
                    w = static_cast<std::int8_t>(next);
                }
            }
        }
        batch.misses[l] += misses;
    }
}

#if BPSIM_SIMD_X86

// ---------------------------------------------------------------------
// SSE2: the 2-bit kernel only, 4 lanes per 128-bit vector, 32-bit
// elements.  SSE2 has no per-element variable shifts, so `x << shift`
// and `x >> shift` for shift in {0,2,4,6} are expressed as multiplies
// by 1 << shift and 64 >> shift (pmullw is safe: every factor and
// product fits in the low 16 bits of its 32-bit element, and the zero
// high halves keep element products from crossing element
// boundaries).  Table bytes move through scalar loads/stores (no
// gather before AVX2).

/** 4-lane inner body; lanes beyond `live` train the caller's dummy. */
__attribute__((target("sse2"))) void
replayLanes4Sse2(const std::uint32_t *records, std::size_t n,
                 std::uint8_t *const bases[4],
                 const std::uint32_t masks[4], std::uint64_t misses[4])
{
    const __m128i mask_v = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(masks));
    const __m128i zero = _mm_setzero_si128();
    const __m128i one = _mm_set1_epi32(1);
    const __m128i three = _mm_set1_epi32(3);
    const __m128i four = _mm_set1_epi32(4);
    const __m128i fifteen = _mm_set1_epi32(15);
    const __m128i sixteen = _mm_set1_epi32(16);

    alignas(16) std::uint32_t bx[4];
    alignas(16) std::uint32_t by[4];
    alignas(16) std::uint32_t nb[4];
    alignas(16) std::uint32_t acc_out[4];

    std::size_t done = 0;
    while (done < n) {
        // Flush the 32-bit accumulator before it can saturate.
        const std::size_t stop =
            done + std::min<std::size_t>(n - done,
                                         std::size_t{1} << 30);
        __m128i acc = zero;
        for (std::size_t i = done; i < stop; ++i) {
            const std::uint32_t rc = records[i];
            const std::uint32_t t = rc >> 31;
            const __m128i idx = _mm_and_si128(
                _mm_set1_epi32(static_cast<int>(rc)), mask_v);
            const __m128i bidx = _mm_srli_epi32(idx, 2);
            // shift = (idx & 3) * 2; m2 = 1 << shift as
            // (1 + 3*bit0(idx)) * (1 + 15*bit1(idx)), m1 = 64 >> shift
            // from the complemented bits.
            const __m128i b0 = _mm_and_si128(idx, one);
            const __m128i b1 =
                _mm_and_si128(_mm_srli_epi32(idx, 1), one);
            const __m128i m2 = _mm_mullo_epi16(
                _mm_add_epi32(one, _mm_mullo_epi16(b0, three)),
                _mm_add_epi32(one, _mm_mullo_epi16(b1, fifteen)));
            const __m128i m1 = _mm_mullo_epi16(
                _mm_sub_epi32(four, _mm_mullo_epi16(b0, three)),
                _mm_sub_epi32(sixteen, _mm_mullo_epi16(b1, fifteen)));

            _mm_store_si128(reinterpret_cast<__m128i *>(bx), bidx);
            by[0] = bases[0][bx[0]];
            by[1] = bases[1][bx[1]];
            by[2] = bases[2][bx[2]];
            by[3] = bases[3][bx[3]];
            const __m128i byte = _mm_load_si128(
                reinterpret_cast<const __m128i *>(by));

            // cur = (byte >> shift) & 3 == ((byte * (64 >> shift))
            // >> 6) & 3 -- byte * m1 <= 255 * 64 stays in 16 bits.
            const __m128i cur = _mm_and_si128(
                _mm_srli_epi32(_mm_mullo_epi16(byte, m1), 6), three);
            const __m128i tv = _mm_set1_epi32(static_cast<int>(t));
            const __m128i ntv =
                _mm_set1_epi32(static_cast<int>(t ^ 1u));
            const __m128i inc =
                _mm_andnot_si128(_mm_cmpeq_epi32(cur, three), tv);
            const __m128i dec =
                _mm_andnot_si128(_mm_cmpeq_epi32(cur, zero), ntv);
            const __m128i next =
                _mm_sub_epi32(_mm_add_epi32(cur, inc), dec);
            // byte ^ ((cur ^ next) << shift) clears the old state and
            // inserts the new one in a single XOR.
            const __m128i newbyte = _mm_xor_si128(
                byte,
                _mm_mullo_epi16(_mm_xor_si128(cur, next), m2));

            _mm_store_si128(reinterpret_cast<__m128i *>(nb), newbyte);
            bases[0][bx[0]] = static_cast<std::uint8_t>(nb[0]);
            bases[1][bx[1]] = static_cast<std::uint8_t>(nb[1]);
            bases[2][bx[2]] = static_cast<std::uint8_t>(nb[2]);
            bases[3][bx[3]] = static_cast<std::uint8_t>(nb[3]);

            acc = _mm_add_epi32(
                acc, _mm_xor_si128(_mm_srli_epi32(cur, 1), tv));
        }
        _mm_store_si128(reinterpret_cast<__m128i *>(acc_out), acc);
        for (unsigned l = 0; l < 4; ++l)
            misses[l] += acc_out[l];
        done = stop;
    }
}

void
replayLaneBatchSse2(const std::uint32_t *records, std::size_t n,
                    LaneBatch &batch)
{
    for (unsigned l0 = 0; l0 < batch.lanes; l0 += 4) {
        alignas(16) std::uint8_t dummy[8] = {};
        std::uint8_t *bases[4];
        std::uint32_t masks[4];
        std::uint64_t misses[4] = {};
        const unsigned live = std::min(4u, batch.lanes - l0);
        for (unsigned l = 0; l < 4; ++l) {
            bases[l] = l < live ? batch.pht[l0 + l] : dummy;
            masks[l] = l < live ? batch.totalMask[l0 + l] : 0;
        }
        replayLanes4Sse2(records, n, bases, masks, misses);
        for (unsigned l = 0; l < live; ++l)
            batch.misses[l0 + l] += misses[l];
    }
}

// ---------------------------------------------------------------------
// AVX2: the perceptron kernel only, 8 lanes per 256-bit vector with
// hardware gathers.  The gather addresses are absolute (base pointer
// null, scale 1): per-lane bank base + byte index, loading 4 bytes at
// the addressed byte -- which is why every bank carries
// PackedPht::kGatherSlack padding.  (There is no AVX2 2-bit replay
// kernel: one measured no faster than SSE2, so 2-bit batches on AVX2
// hosts use SSE2.)

/**
 * 8-lane perceptron inner body.  Weight reads are hardware gathers on
 * absolute addresses (the int8 sign extension is slli/srai on the
 * gathered dword); updates stay scalar byte stores -- no AVX2 scatter
 * exists, and adjacent int8 weights rule out 4-byte writebacks anyway
 * (a neighbouring table's weight can sit inside the window).
 */
__attribute__((target("avx2"))) void
perceptronLanes8Avx2(const std::uint32_t *idx, unsigned tables,
                     const std::uint8_t *taken, std::size_t n,
                     std::int8_t *const bases[8],
                     const std::uint32_t live[8],
                     const std::int32_t thetas[8],
                     std::uint64_t misses[8])
{
    const __m256i live_v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(live));
    const __m256i theta_v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(thetas));
    const __m256i base_lo = _mm256_set_epi64x(
        reinterpret_cast<long long>(bases[3]),
        reinterpret_cast<long long>(bases[2]),
        reinterpret_cast<long long>(bases[1]),
        reinterpret_cast<long long>(bases[0]));
    const __m256i base_hi = _mm256_set_epi64x(
        reinterpret_cast<long long>(bases[7]),
        reinterpret_cast<long long>(bases[6]),
        reinterpret_cast<long long>(bases[5]),
        reinterpret_cast<long long>(bases[4]));
    const __m256i zero = _mm256_setzero_si256();
    const __m256i one = _mm256_set1_epi32(1);
    const __m256i allones = _mm256_set1_epi32(-1);
    const __m256i over =
        _mm256_set1_epi32(PerceptronBatch::kWeightMax + 1);
    const __m256i under =
        _mm256_set1_epi32(PerceptronBatch::kWeightMin - 1);

    alignas(32) std::uint32_t ixa[PerceptronBatch::kMaxTables][8];
    alignas(32) std::int32_t wa[PerceptronBatch::kMaxTables][8];
    alignas(32) std::int32_t nb[8];
    alignas(32) std::uint32_t acc_out[8];

    const std::size_t stride =
        static_cast<std::size_t>(tables) * PerceptronBatch::kMaxLanes;
    __m256i acc = zero;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t *row = idx + i * stride;
        __m256i sum = zero;
        for (unsigned t = 0; t < tables; ++t) {
            const __m256i iv = _mm256_and_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                    row + t * PerceptronBatch::kMaxLanes)),
                live_v);
            _mm256_store_si256(reinterpret_cast<__m256i *>(ixa[t]),
                               iv);
            const __m256i addr_lo = _mm256_add_epi64(
                base_lo, _mm256_cvtepu32_epi64(
                             _mm256_castsi256_si128(iv)));
            const __m256i addr_hi = _mm256_add_epi64(
                base_hi, _mm256_cvtepu32_epi64(
                             _mm256_extracti128_si256(iv, 1)));
            const __m128i g_lo = _mm256_i64gather_epi32(
                static_cast<const int *>(nullptr), addr_lo, 1);
            const __m128i g_hi = _mm256_i64gather_epi32(
                static_cast<const int *>(nullptr), addr_hi, 1);
            // Sign-extend the gathered low byte: << 24 then >> 24.
            const __m256i w = _mm256_srai_epi32(
                _mm256_slli_epi32(_mm256_set_m128i(g_hi, g_lo), 24),
                24);
            _mm256_store_si256(reinterpret_cast<__m256i *>(wa[t]), w);
            sum = _mm256_add_epi32(sum, w);
        }
        const std::uint32_t tk = taken[i] & 1u;
        const __m256i miss01 = _mm256_xor_si256(
            _mm256_srli_epi32(sum, 31),
            _mm256_set1_epi32(static_cast<int>(tk ^ 1u)));
        acc = _mm256_add_epi32(acc, miss01);
        const __m256i abs = _mm256_abs_epi32(sum);
        const __m256i missm = _mm256_sub_epi32(zero, miss01);
        const __m256i lowconf = _mm256_xor_si256(
            _mm256_cmpgt_epi32(abs, theta_v), allones);
        const __m256i trainm = _mm256_and_si256(
            _mm256_or_si256(missm, lowconf), live_v);
        if (_mm256_movemask_epi8(trainm) == 0)
            continue;
        const __m256i delta = _mm256_and_si256(
            _mm256_set1_epi32(tk ? 1 : -1), trainm);
        for (unsigned t = 0; t < tables; ++t) {
            __m256i next = _mm256_add_epi32(
                _mm256_load_si256(
                    reinterpret_cast<const __m256i *>(wa[t])),
                delta);
            next = _mm256_sub_epi32(
                next,
                _mm256_and_si256(_mm256_cmpeq_epi32(next, over),
                                 one));
            next = _mm256_add_epi32(
                next,
                _mm256_and_si256(_mm256_cmpeq_epi32(next, under),
                                 one));
            _mm256_store_si256(reinterpret_cast<__m256i *>(nb), next);
            bases[0][ixa[t][0]] = static_cast<std::int8_t>(nb[0]);
            bases[1][ixa[t][1]] = static_cast<std::int8_t>(nb[1]);
            bases[2][ixa[t][2]] = static_cast<std::int8_t>(nb[2]);
            bases[3][ixa[t][3]] = static_cast<std::int8_t>(nb[3]);
            bases[4][ixa[t][4]] = static_cast<std::int8_t>(nb[4]);
            bases[5][ixa[t][5]] = static_cast<std::int8_t>(nb[5]);
            bases[6][ixa[t][6]] = static_cast<std::int8_t>(nb[6]);
            bases[7][ixa[t][7]] = static_cast<std::int8_t>(nb[7]);
        }
    }
    _mm256_store_si256(reinterpret_cast<__m256i *>(acc_out), acc);
    for (unsigned l = 0; l < 8; ++l)
        misses[l] += acc_out[l];
}

void
replayPerceptronBatchAvx2(const std::uint32_t *idx,
                          const std::uint8_t *taken, std::size_t n,
                          PerceptronBatch &batch)
{
    for (unsigned l0 = 0; l0 < batch.lanes; l0 += 8) {
        alignas(32) std::int8_t dummy[8] = {};
        std::int8_t *bases[8];
        alignas(32) std::uint32_t live[8];
        alignas(32) std::int32_t thetas[8];
        std::uint64_t misses[8] = {};
        const unsigned live_count = std::min(8u, batch.lanes - l0);
        for (unsigned l = 0; l < 8; ++l) {
            bases[l] = l < live_count ? batch.weights[l0 + l] : dummy;
            live[l] = l < live_count ? 0xFFFFFFFFu : 0u;
            thetas[l] = l < live_count ? batch.theta[l0 + l] : -1;
        }
        perceptronLanes8Avx2(idx + l0, batch.tables, taken, n, bases,
                             live, thetas, misses);
        for (unsigned l = 0; l < live_count; ++l)
            batch.misses[l0 + l] += misses[l];
    }
}

#if defined(BPSIM_HAVE_AVX512)

// ---------------------------------------------------------------------
// AVX-512: the 2-bit kernel only, 16 lanes per 512-bit vector.
// Addressing mirrors the AVX2 perceptron kernel -- two 8-wide
// vpgatherqd over absolute 64-bit addresses -- and the gathered dword
// is kept whole (not masked to the low byte) so the update can be
// written back with vpscatterqd: the counter XOR only
// touches bits 0..7 (shift <= 6, 2-bit field), the upper three bytes
// round-trip unchanged, and because lanes own disjoint tables the
// 4-byte store never lands in another lane's bytes.  The final table
// byte's scatter spills into PackedPht::kGatherSlack, which PackedPht
// allocates writable.  Only avx512f intrinsics are used, so one CPUID
// feature gates execution and one probe gates compilation.

/** 16-lane inner body; lanes beyond `live` train the caller's dummy. */
__attribute__((target("avx512f"))) void
replayLanes16Avx512(const std::uint32_t *records, std::size_t n,
                    std::uint8_t *const bases[16],
                    const std::uint32_t masks[16],
                    std::uint64_t misses[16])
{
    const __m512i mask_v = _mm512_loadu_si512(masks);
    const __m512i base_lo = _mm512_set_epi64(
        reinterpret_cast<long long>(bases[7]),
        reinterpret_cast<long long>(bases[6]),
        reinterpret_cast<long long>(bases[5]),
        reinterpret_cast<long long>(bases[4]),
        reinterpret_cast<long long>(bases[3]),
        reinterpret_cast<long long>(bases[2]),
        reinterpret_cast<long long>(bases[1]),
        reinterpret_cast<long long>(bases[0]));
    const __m512i base_hi = _mm512_set_epi64(
        reinterpret_cast<long long>(bases[15]),
        reinterpret_cast<long long>(bases[14]),
        reinterpret_cast<long long>(bases[13]),
        reinterpret_cast<long long>(bases[12]),
        reinterpret_cast<long long>(bases[11]),
        reinterpret_cast<long long>(bases[10]),
        reinterpret_cast<long long>(bases[9]),
        reinterpret_cast<long long>(bases[8]));
    const __m512i zero = _mm512_setzero_si512();
    const __m512i three = _mm512_set1_epi32(3);

    alignas(64) std::uint32_t acc_out[16];

    std::size_t done = 0;
    while (done < n) {
        // Flush the 32-bit accumulator before it can saturate.
        const std::size_t stop =
            done + std::min<std::size_t>(n - done,
                                         std::size_t{1} << 30);
        __m512i acc = zero;
        for (std::size_t i = done; i < stop; ++i) {
            const std::uint32_t rc = records[i];
            const std::uint32_t t = rc >> 31;
            const __m512i idx = _mm512_and_si512(
                _mm512_set1_epi32(static_cast<int>(rc)), mask_v);
            const __m512i bidx = _mm512_srli_epi32(idx, 2);
            const __m512i shift = _mm512_slli_epi32(
                _mm512_and_si512(idx, three), 1);

            const __m512i addr_lo = _mm512_add_epi64(
                base_lo, _mm512_cvtepu32_epi64(
                             _mm512_castsi512_si256(bidx)));
            const __m512i addr_hi = _mm512_add_epi64(
                base_hi, _mm512_cvtepu32_epi64(
                             _mm512_extracti64x4_epi64(bidx, 1)));
            const __m256i g_lo = _mm512_i64gather_epi32(
                addr_lo, static_cast<const int *>(nullptr), 1);
            const __m256i g_hi = _mm512_i64gather_epi32(
                addr_hi, static_cast<const int *>(nullptr), 1);
            // Keep the whole gathered dword: the update only flips
            // bits in the low byte, so scattering `word` back leaves
            // the three neighbour bytes exactly as read.
            const __m512i word = _mm512_inserti64x4(
                _mm512_castsi256_si512(g_lo), g_hi, 1);

            const __m512i cur = _mm512_and_si512(
                _mm512_srlv_epi32(word, shift), three);
            const __m512i tv =
                _mm512_set1_epi32(static_cast<int>(t));
            const __m512i ntv =
                _mm512_set1_epi32(static_cast<int>(t ^ 1u));
            const __m512i inc = _mm512_maskz_mov_epi32(
                _mm512_cmpneq_epi32_mask(cur, three), tv);
            const __m512i dec = _mm512_maskz_mov_epi32(
                _mm512_cmpneq_epi32_mask(cur, zero), ntv);
            const __m512i next =
                _mm512_sub_epi32(_mm512_add_epi32(cur, inc), dec);
            const __m512i newword = _mm512_xor_si512(
                word, _mm512_sllv_epi32(_mm512_xor_si512(cur, next),
                                        shift));

            _mm512_i64scatter_epi32(
                nullptr, addr_lo,
                _mm512_castsi512_si256(newword), 1);
            _mm512_i64scatter_epi32(
                nullptr, addr_hi,
                _mm512_extracti64x4_epi64(newword, 1), 1);

            acc = _mm512_add_epi32(
                acc,
                _mm512_xor_si512(_mm512_srli_epi32(cur, 1), tv));
        }
        _mm512_store_si512(acc_out, acc);
        for (unsigned l = 0; l < 16; ++l)
            misses[l] += acc_out[l];
        done = stop;
    }
}

void
replayLaneBatchAvx512(const std::uint32_t *records, std::size_t n,
                      LaneBatch &batch)
{
    for (unsigned l0 = 0; l0 < batch.lanes; l0 += 16) {
        alignas(64) std::uint8_t dummy[8] = {};
        std::uint8_t *bases[16];
        alignas(64) std::uint32_t masks[16];
        std::uint64_t misses[16] = {};
        const unsigned live = std::min(16u, batch.lanes - l0);
        for (unsigned l = 0; l < 16; ++l) {
            bases[l] = l < live ? batch.pht[l0 + l] : dummy;
            masks[l] = l < live ? batch.totalMask[l0 + l] : 0;
        }
        replayLanes16Avx512(records, n, bases, masks, misses);
        for (unsigned l = 0; l < live; ++l)
            batch.misses[l0 + l] += misses[l];
    }
}

#endif // BPSIM_HAVE_AVX512

#endif // BPSIM_SIMD_X86

} // namespace

const char *
simdTargetName(SimdTarget target)
{
    switch (target) {
      case SimdTarget::Auto: return "auto";
      case SimdTarget::Scalar: return "scalar";
      case SimdTarget::SSE2: return "sse2";
      case SimdTarget::AVX2: return "avx2";
      case SimdTarget::AVX512: return "avx512";
    }
    return "?";
}

Result<SimdTarget>
parseSimdTargetName(const std::string &name)
{
    if (name == "auto")
        return SimdTarget::Auto;
    if (name == "scalar")
        return SimdTarget::Scalar;
    if (name == "sse2")
        return SimdTarget::SSE2;
    if (name == "avx2")
        return SimdTarget::AVX2;
    if (name == "avx512")
        return SimdTarget::AVX512;
    return BPSIM_ERROR("unrecognised SIMD target '", name,
                       "' (expected scalar, sse2, avx2, avx512 or "
                       "auto)");
}

Status
simdEnvStatus()
{
    const char *env = std::getenv("BPSIM_SIMD");
    if (!env || !*env)
        return Status();
    const Result<SimdTarget> parsed = parseSimdTargetName(env);
    if (!parsed.ok())
        return BPSIM_ERROR("invalid BPSIM_SIMD value: ",
                           parsed.error().message());
    return Status();
}

bool
simdTargetSupported(SimdTarget target)
{
    switch (target) {
      case SimdTarget::Auto:
      case SimdTarget::Scalar:
        return true;
#if BPSIM_SIMD_X86
      case SimdTarget::SSE2:
        return __builtin_cpu_supports("sse2") != 0;
      case SimdTarget::AVX2:
        return __builtin_cpu_supports("avx2") != 0;
      case SimdTarget::AVX512:
#if defined(BPSIM_HAVE_AVX512)
        return __builtin_cpu_supports("avx512f") != 0;
#else
        // Toolchain could not compile the kernel; report unsupported
        // so dispatch clamps to AVX2 even on capable hardware.
        return false;
#endif
#else
      default:
        return false;
#endif
    }
    return false;
}

SimdTarget
detectSimdTarget()
{
    static const SimdTarget cached = [] {
#if BPSIM_SIMD_X86
        __builtin_cpu_init();
#if defined(BPSIM_HAVE_AVX512)
        if (__builtin_cpu_supports("avx512f"))
            return SimdTarget::AVX512;
#endif
        if (__builtin_cpu_supports("avx2"))
            return SimdTarget::AVX2;
        if (__builtin_cpu_supports("sse2"))
            return SimdTarget::SSE2;
#endif
        return SimdTarget::Scalar;
    }();
    return cached;
}

SimdTarget
resolveSimdTarget(SimdTarget requested)
{
    SimdTarget want = requested;
    if (want == SimdTarget::Auto)
        want = envTarget();
    if (want == SimdTarget::Auto)
        want = detectSimdTarget();
    while (want != SimdTarget::Scalar && !simdTargetSupported(want))
        want = narrower(want);
    return want;
}

std::vector<SimdTarget>
supportedSimdTargets()
{
    std::vector<SimdTarget> targets{SimdTarget::Scalar};
    for (SimdTarget t : {SimdTarget::SSE2, SimdTarget::AVX2,
                         SimdTarget::AVX512}) {
        if (simdTargetSupported(t))
            targets.push_back(t);
    }
    return targets;
}

void
replayLaneBatch(SimdTarget target, const std::uint32_t *records,
                std::size_t n, LaneBatch &batch)
{
    bpsim_assert(target != SimdTarget::Auto,
                 "replayLaneBatch needs a resolved target");
    bpsim_assert(batch.lanes >= 1 &&
                     batch.lanes <= LaneBatch::kMaxLanes,
                 "lane batch width ", batch.lanes, " out of range");
    // Occupancy-aware dispatch: a vector kernel pays for its full
    // width no matter how many lanes are live (dead lanes replay into
    // a dummy table), so an under-occupied batch is slower than the
    // scalar loop.  The 4-wide SSE2 kernel runs ~1.5x a scalar
    // lane-update, putting its break-even at 3 live lanes; the 16-wide
    // AVX-512 kernel only beats SSE2 passes once more than 8 lanes are
    // live.  There is no AVX2 2-bit kernel: one measured no faster
    // than SSE2 (0.96x of scalar vs SSE2's 1.05x), so AVX2 hosts take
    // the SSE2 kernel.  Every path is bit-identical, so this is purely
    // a cost choice.
    switch (target) {
#if BPSIM_SIMD_X86
      case SimdTarget::AVX512:
#if defined(BPSIM_HAVE_AVX512)
        if (batch.lanes >= 9) {
            replayLaneBatchAvx512(records, n, batch);
            return;
        }
#endif
        [[fallthrough]];
      case SimdTarget::AVX2:
      case SimdTarget::SSE2:
        if (batch.lanes >= 3) {
            replayLaneBatchSse2(records, n, batch);
            return;
        }
        break;
#endif
      default:
        break;
    }
    replayLaneBatchScalar(records, n, batch);
}

void
replayPerceptronBatch(SimdTarget target, const std::uint32_t *idx,
                      const std::uint8_t *taken, std::size_t n,
                      PerceptronBatch &batch)
{
    bpsim_assert(target != SimdTarget::Auto,
                 "replayPerceptronBatch needs a resolved target");
    bpsim_assert(batch.lanes >= 1 &&
                     batch.lanes <= PerceptronBatch::kMaxLanes,
                 "perceptron batch width ", batch.lanes,
                 " out of range");
    bpsim_assert(batch.tables >= 1 &&
                     batch.tables <= PerceptronBatch::kMaxTables,
                 "perceptron batch tables ", batch.tables,
                 " out of range");
    bpsim_assert(n < (std::size_t{1} << 30),
                 "perceptron batch span ", n,
                 " overflows the per-call miss accumulator");
    // One vector kernel: the 8-wide AVX2 one, which AVX-512 hosts run
    // too.  An SSE2 and a 16-wide AVX-512 perceptron kernel both lost
    // to it (0.975x and 1.08x of scalar against AVX2's 1.12x,
    // bench/BENCH_sweep.json zoo block) and were deleted.  Dead padding
    // lanes still pay gathers and stores, so batches with fewer than 5
    // live lanes run the scalar loop.
#if BPSIM_SIMD_X86
    if ((target == SimdTarget::AVX2 || target == SimdTarget::AVX512) &&
        batch.lanes >= 5) {
        replayPerceptronBatchAvx2(idx, taken, n, batch);
        return;
    }
#endif
    replayPerceptronBatchScalar(idx, taken, n, batch);
}

} // namespace bpsim
