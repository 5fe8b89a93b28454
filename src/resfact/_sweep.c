/* Compiled update sweep of the decoder.
 *
 * Built and loaded by _sweep.py.  resfact_run runs whole update sweeps of
 * every variant until the convergence test, the decoder's one stopping
 * rule, passes or its budget runs out.  One struct resfact_plan, which
 * resfact_plan sizes and lays out, describes the decode: every factor's
 * packed books, the scratch they share and what each factor keeps from
 * its last search.  resfact_ties draws every variant's tie-breaks from
 * the tie stream itself, bit for bit as numpy draws them.  Both the
 * search and the reconstruction read books that resfact_pack packs, as
 * pack() packs each query: element j of a row at bit j % 64 of its
 * word j / 64, 1 for +1 and 0 for -1.  Set-up runs here too:
 * resfact_expand turns a codebook's random bytes into +-1, and
 * resfact_init starts every factor at the majority of its packed search
 * rows.
 * The search keeps each factor's last query and its int32 numerators,
 * and updates them from the query bits that changed where that costs
 * less than searching afresh (resfact_delta_limit); both give the same
 * integers.  brn and acf compare those integers with the least numerator
 * that passes each threshold, and their one floating-point operation,
 * each numerator / D, is done once per resfact_run, at its exit, and
 * rounds exactly as numpy's does.  imf's noise is numpy's own
 * random_standard_normal_fill (libnpyrandom.a), added as numpy's
 * expressions add it, unfused (-ffp-contract=off), and its real-valued
 * sums run in row order.
 * resfact_flip draws acf's flip masks from a PCG64 state, the uniforms
 * of Generator.random() bit for bit, and applies them to a book in the
 * same pass: with AVX-512 in 16 lanes that each jump 16 steps at a time,
 * otherwise one step after another.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#if !defined(__BYTE_ORDER__) || __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "pack() and superpose_block() read memory as little-endian words"
#endif
#if !defined(__SIZEOF_INT128__)
#error "resfact_flip() steps PCG64's 128-bit state as an unsigned __int128"
#endif

/* numpy's bitgen_t (numpy/random/bitgen.h): a bit generator's state and
 * its draw functions, declared here so the build needs no numpy headers. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy/random/distributions.h: fills out[0..n) with the draws of
 * Generator.standard_normal(n) from the same bit generator. */
void random_standard_normal_fill(bitgen_t *bitgen_state, intptr_t n, double *out);

/* The constants and scratch buffers of one decode, which resfact_plan
 * lays out.  search and recon each hold the factors' books in factor
 * order, m bit-packed rows of `words` 64-bit words per factor: the search
 * and the reconstruction books, one and the same array unless the variant
 * is acf.  query, unbound, rows, weights, sums and changed are scratch
 * that every factor's update shares; after an imf update, weights holds
 * that factor's reconstruction weights.
 *
 * What each factor keeps from its last search, kept until the next:
 * kept[f] is its packed query and nums[f] (rows from m on padding) that
 * query's numerators, valid where flags[f] has KEPT.  columns[f] is
 * factor f's search book by columns, valid where flags[f] has COLUMNS:
 * for each element j < 64 * words, mwords words whose bit i % 64 of word
 * i / 64 is bit j of row i, zero from row m on, built by the factor's
 * first delta search.  searches, the caller's array as nums is, counts
 * the full searches ([0]) and the delta ones ([1]). */
struct resfact_plan {
    const uint64_t *search, *recon;
    int64_t m, dim, words, factors, mwords, delta_limit;
    uint64_t *query, *columns, *kept;
    int8_t *unbound;
    int32_t *rows, *sums, *changed, *nums;
    double *weights;
    int64_t *flags, *searches;
};

enum { KEPT = 1, COLUMNS = 2 };

/* out[i] = dim - 2 * popcount(rows[i] ^ query): the dot products of n
 * bit-packed bipolar rows of `words` 64-bit words with a packed query.
 * Padding bits are zero in both, so they cancel in the xor. */
static void search(const uint64_t *rows, int64_t n, int64_t words,
                   const uint64_t *query, int64_t dim, int32_t *out)
{
    for (int64_t i = 0; i < n; i++) {
        const uint64_t *row = rows + i * words;
        int64_t hamming = 0;
        for (int64_t w = 0; w < words; w++)
            hamming += __builtin_popcountll(row[w] ^ query[w]);
        out[i] = (int32_t)(dim - 2 * hamming);
    }
}

#if defined(__AVX512BW__)
/* Swaps bit c of a[r] with bit r of a[c], for the 64 x 64 bit matrix
 * whose row r is lane r % 8 of z[r / 8].  Each round swaps the
 * off-diagonal j x j blocks of every 2j x 2j block, j = 32, 16, ..., 1,
 * `mask` picking the columns whose bit j is clear: between vectors for
 * j >= 8, and from j = 4 on between the lanes that `swap` exchanges, the
 * lanes with bit j clear (`lower`) taking the upper block's bits. */
static void transpose64(__m512i z[8])
{
    uint64_t mask = 0x00000000FFFFFFFFULL;
    for (int j = 32; j >= 8; j >>= 1, mask ^= mask << j) {
        const __m512i mk = _mm512_set1_epi64((long long)mask);
        for (int i = 0; i < 8; i = (i + j / 8 + 1) & ~(j / 8)) {
            const __m512i t = _mm512_and_si512(
                _mm512_xor_si512(_mm512_srli_epi64(z[i], j), z[i + j / 8]), mk);
            z[i] = _mm512_xor_si512(z[i], _mm512_slli_epi64(t, j));
            z[i + j / 8] = _mm512_xor_si512(z[i + j / 8], t);
        }
    }
    for (int j = 4; j; j >>= 1, mask ^= mask << j) {
        const __m512i mk = _mm512_set1_epi64((long long)mask);
        const __mmask8 lower = j == 4 ? 0x0F : j == 2 ? 0x33 : 0x55;
        for (int i = 0; i < 8; i++) {
            const __m512i y = j == 4 ? _mm512_shuffle_i64x2(z[i], z[i], 0x4E)
                            : j == 2 ? _mm512_permutex_epi64(z[i], 0x4E)
                                     : _mm512_shuffle_epi32(z[i], 0x4E);
            const __m512i lo = _mm512_mask_blend_epi64(lower, y, z[i]);
            const __m512i hi = _mm512_mask_blend_epi64(lower, z[i], y);
            const __m512i t = _mm512_and_si512(_mm512_xor_si512(_mm512_srli_epi64(lo, j), hi), mk);
            z[i] = _mm512_xor_si512(z[i], _mm512_mask_blend_epi64(lower, t,
                                                                  _mm512_slli_epi64(t, j)));
        }
    }
}

/* Fills p->columns[f] from factor f's packed search rows, 64 rows by 64
 * elements at a time. */
static void build_columns(const struct resfact_plan *p, int64_t f)
{
    const int64_t m = p->m, words = p->words, mwords = p->mwords;
    const uint64_t *rows = p->search + f * m * words;
    uint64_t *cols = p->columns + f * 64 * words * mwords, a[64];
    __m512i z[8];
    for (int64_t b = 0; b < mwords; b++)
        for (int64_t w = 0; w < words; w++) {
            for (int64_t r = 0; r < 64; r++)
                a[r] = 64 * b + r < m ? rows[(64 * b + r) * words + w] : 0;
            for (int i = 0; i < 8; i++)
                z[i] = _mm512_loadu_si512(a + 8 * i);
            transpose64(z);
            for (int i = 0; i < 8; i++)
                _mm512_storeu_si512(a + 8 * i, z[i]);
            for (int64_t c = 0; c < 64; c++)
                cols[(64 * w + c) * mwords + b] = a[c];
        }
}

/* delta_search() for the 64 * nb rows of column words b0..b0 + nb,
 * nb = 1, 2, 4 or 8, in nb vectors of 64 int8 lanes: for every element in pos and
 * in neg, one masked add of +1 or -1, the mask being that column's word
 * there.  Every 127 elements the lanes, which never pass +-127, are added
 * to the int32 numerators, times 4, and cleared. */
static inline __attribute__((always_inline)) void
delta_block(const uint64_t *cols, int64_t mwords, int64_t b0, int nb, const int32_t *pos,
            int64_t npos, const int32_t *neg, int64_t nneg, int32_t *nums)
{
    __m512i acc[8];
    const __m512i one = _mm512_set1_epi8(1);
    for (int64_t k = 0; k < npos + nneg;) {
        for (int v = 0; v < nb; v++)
            acc[v] = _mm512_setzero_si512();
        const int64_t end = npos + nneg - k < 127 ? npos + nneg : k + 127;
        for (; k < end && k < npos; k++) {
            const uint64_t *bits = cols + pos[k] * mwords + b0;
            for (int v = 0; v < nb; v++)
                acc[v] = _mm512_mask_add_epi8(acc[v], bits[v], acc[v], one);
        }
        for (; k < end; k++) {
            const uint64_t *bits = cols + neg[k - npos] * mwords + b0;
            for (int v = 0; v < nb; v++)
                acc[v] = _mm512_mask_sub_epi8(acc[v], bits[v], acc[v], one);
        }
        for (int v = 0; v < nb; v++)
            for (int q = 0; q < 4; q++) {
                int32_t *n = nums + 64 * (b0 + v) + 16 * q;
                const __m512i d = _mm512_cvtepi8_epi32(_mm512_extracti32x4_epi32(acc[v], q));
                _mm512_storeu_si512(n, _mm512_add_epi32(_mm512_loadu_si512(n),
                                                        _mm512_slli_epi32(d, 2)));
            }
    }
}

/* Moves factor f's kept numerators from its kept query to `query`.  A
 * changed element j, now q_j = +-1, moves row i's numerator by
 * 2 * q_j * (2 * b_ij - 1) for its bit b_ij: + or -4 where the bit is
 * set, and the constant -2 * q_j everywhere.  The changed elements are
 * listed by their new sign, so that each list takes one add. */
static void delta_search(const struct resfact_plan *p, int64_t f, const uint64_t *query)
{
    const int64_t words = p->words, mwords = p->mwords;
    const uint64_t *kept = p->kept + f * words;
    int32_t *pos = p->changed, *neg = p->changed + 64 * words;
    int64_t npos = 0, nneg = 0;
    for (int64_t w = 0; w < words; w++)
        for (uint64_t d = query[w] ^ kept[w]; d; d &= d - 1) {
            const int t = __builtin_ctzll(d);
            const int up = (int)(query[w] >> t & 1);
            pos[npos] = neg[nneg] = (int32_t)(64 * w + t);
            npos += up;
            nneg += !up;
        }
    const uint64_t *cols = p->columns + f * 64 * words * mwords;
    int32_t *nums = p->nums + f * 64 * mwords;
    /* Blocks of 8, then 4, 2 and 1 words: each a constant, so that the
     * lanes stay in registers. */
    int64_t b0 = 0;
    for (; b0 + 8 <= mwords; b0 += 8)
        delta_block(cols, mwords, b0, 8, pos, npos, neg, nneg, nums);
    if (mwords & 4) {
        delta_block(cols, mwords, b0, 4, pos, npos, neg, nneg, nums);
        b0 += 4;
    }
    if (mwords & 2) {
        delta_block(cols, mwords, b0, 2, pos, npos, neg, nneg, nums);
        b0 += 2;
    }
    if (mwords & 1)
        delta_block(cols, mwords, b0, 1, pos, npos, neg, nneg, nums);
    const int32_t base = (int32_t)(2 * (nneg - npos));
    for (int64_t i = 0; i < p->m; i++)
        nums[i] += base;
}
#endif

/* The costs, in units of 10 ps on the machine the rule was fitted on, of
 * a full search, per row and per row and word, and of a delta search,
 * once per search beyond what a full one costs, per changed bit and per
 * changed bit and column word.  Fitted to single searches of hot books
 * timed in C, at the search shapes of the preset table, on that
 * machine's faster speed level (a 64-bit word takes longer on the slower
 * one, which raises the crossover). */
#define FULL_ROW 108
#define FULL_WORD 8
#define DELTA_SEARCH 3500
#define DELTA_BIT 114
#define DELTA_WORD 44

/* The most changed query bits for which a delta search of a book of m
 * rows of `words` words costs less than a full one, or -1 where there is
 * no delta search, in builds without AVX-512BW: 4/5 of the crossover
 * that those costs give, which kept it below every crossover measured.
 * The rule changes the speed of a search, never its numerators. */
int64_t resfact_delta_limit(int64_t m, int64_t words)
{
#if defined(__AVX512BW__)
    const int64_t saved = m * (FULL_ROW + FULL_WORD * words) - DELTA_SEARCH;
    return saved > 0 ? 4 * saved / (5 * (DELTA_BIT + DELTA_WORD * ((m + 63) / 64))) : 0;
#else
    (void)m;
    (void)words;
    return -1;
#endif
}

/* Lays out the plan of a decode of `factors` books of m rows and
 * dimension dim, packed in search and recon, with the caller's nums
 * ((factors, 64 * ceil(m / 64)) int32) and searches (2 int64): the struct
 * at the start of `block`, each scratch buffer after it from a 64-byte
 * boundary of the block on, and every factor's flags cleared.  Returns
 * the bytes that takes; with `block` NULL it only returns them.  Every
 * build lays plans out alike, so either drives a plan the other laid out. */
int64_t resfact_plan(void *block, const uint64_t *search, const uint64_t *recon, int64_t m,
                     int64_t dim, int64_t factors, int32_t *nums, int64_t *searches)
{
    const int64_t words = (dim + 63) / 64, mwords = (m + 63) / 64;
    struct resfact_plan p = {search, recon, m, dim, words, factors, mwords,
                             resfact_delta_limit(m, words), .nums = nums, .searches = searches};
    uintptr_t at = (uintptr_t)block + (sizeof p + 63) / 64 * 64;
#define CARVE(buffer, n) (p.buffer = (void *)at, at += ((n) * sizeof *p.buffer + 63) / 64 * 64)
    CARVE(query, words);
    CARVE(unbound, dim);
    CARVE(rows, m);
    CARVE(weights, m);
    CARVE(sums, 64 * words);
    CARVE(changed, 2 * 64 * words);
    CARVE(kept, factors * words);
    CARVE(columns, factors * 64 * words * mwords);
    CARVE(flags, factors);
#undef CARVE
    if (block) {
        memcpy(block, &p, sizeof p);
        memset(p.flags, 0, (size_t)factors * sizeof *p.flags);
    }
    return (int64_t)(at - (uintptr_t)block);
}

/* Sets factor f's numerators, p->nums[f], to those of the packed
 * `query` against its search book and keeps that query.  With `path` 0
 * it searches afresh; with 1 it updates the kept numerators from the
 * changed bits if it can; with -1 it does so if at most delta_limit bits
 * changed.  Returns 1 where it updated, 0 where it searched afresh. */
int64_t resfact_search(const struct resfact_plan *p, int64_t f, const uint64_t *query,
                       int64_t path)
{
    const int64_t words = p->words;
    uint64_t *kept = p->kept + f * words;
    int64_t delta = 0;
#if defined(__AVX512BW__)
    if (path && p->flags[f] & KEPT && p->delta_limit >= 0) {
        int64_t changed = 0;
        for (int64_t w = 0; w < words; w++)
            changed += __builtin_popcountll(query[w] ^ kept[w]);
        delta = path > 0 || changed <= p->delta_limit;
        if (delta && !(p->flags[f] & COLUMNS)) {
            build_columns(p, f);
            p->flags[f] |= COLUMNS;
        }
    }
    if (delta)
        delta_search(p, f, query);
    else
#else
    (void)path;
#endif
        search(p->search + f * p->m * words, p->m, words, query, p->dim,
               p->nums + f * 64 * p->mwords);
    memcpy(kept, query, (size_t)words * sizeof *kept);
    p->flags[f] |= KEPT;
    p->searches[delta]++;
    return delta;
}

#if defined(__AVX512BW__)
/* superpose() for the 64 * nw columns of words w0..w0 + nw, nw <= 4, of
 * every listed row, in 2 * nw vectors of 32 int16 lanes: one masked add
 * of the row's weight per 32 columns, the mask being the row's 32 bits
 * there, read as one little-endian uint32.  Every `run` rows the lanes
 * are added to sums in int32 and cleared, so they never hold more than
 * run * dim <= INT16_MAX in magnitude. */
static inline __attribute__((always_inline)) void
superpose_block(const uint64_t *recon, int64_t words, int64_t w0, int nw, const int32_t *rows,
                int64_t n, const int32_t *weights, int64_t run, int32_t *sums)
{
    __m512i acc[8];
    for (int64_t k = 0; k < n;) {
        for (int i = 0; i < 2 * nw; i++)
            acc[i] = _mm512_setzero_si512();
        for (const int64_t end = n - k < run ? n : k + run; k < end; k++) {
            const uint8_t *bits = (const uint8_t *)(recon + (int64_t)rows[k] * words + w0);
            const __m512i w = _mm512_set1_epi16((int16_t)weights[rows[k]]);
            for (int i = 0; i < 2 * nw; i++) {
                uint32_t mask;
                memcpy(&mask, bits + 4 * i, 4);
                acc[i] = _mm512_mask_add_epi16(acc[i], mask, acc[i], w);
            }
        }
        for (int i = 0; i < 2 * nw; i++) {
            int32_t *s = sums + 64 * w0 + 32 * i;
            const __m512i lo = _mm512_cvtepi16_epi32(_mm512_castsi512_si256(acc[i]));
            const __m512i hi = _mm512_cvtepi16_epi32(_mm512_extracti64x4_epi64(acc[i], 1));
            _mm512_storeu_si512(s, _mm512_add_epi32(_mm512_loadu_si512(s), lo));
            _mm512_storeu_si512(s + 16, _mm512_add_epi32(_mm512_loadu_si512(s + 16), hi));
        }
    }
}
#endif

/* Sets sums[j], for every j < 64 * words, to the sum of weights[rows[k]]
 * over the k < n whose row rows[k] of the bit-packed (m, words) book
 * `recon` has bit j set, and returns the sum of all n weights.  Since a
 * +-1 element is 2 * bit - 1, the numerator-weighted sum of the rows at
 * column j is then 2 * sums[j] minus that total, exactly.
 *
 * Both callers list rows from 0..m-1, each at most once, and weight
 * them by integers in [-dim, dim]: resfact_update by their numerators,
 * resfact_init by 1.  With m * dim < 2**31, which _Kernels checks, no
 * int32 sum can overflow.  Padding bits are zero, so the columns from dim on stay 0.
 *
 * With AVX-512BW and dim <= INT16_MAX, a weight fits in int16, and the
 * sums are formed 256 columns at a time in int16 lanes, by masked adds
 * (superpose_block).  Otherwise a plain loop adds each row's weight in
 * int32 where its bit is set.  On a
 * 2-vCPU Xeon with AVX-512 and gcc 12.2, timed alone over one set of
 * rows with warm caches, the masked adds took 7.7 us where the pairwise
 * int16 sum of int8 rows they replaced took 19.6 us, at M = D = 1000
 * with half the rows, and 3.0 against 7.6 us at M = 2236, D = 1000 with
 * 8% of them (medians of 7).  Built without AVX-512, the plain loop
 * took about 1.8 times as long as that int8 sum built the same way. */
static int64_t superpose(const uint64_t *recon, int64_t words, int64_t dim, const int32_t *rows,
                         int64_t n, const int32_t *weights, int32_t *sums)
{
    memset(sums, 0, (size_t)(64 * words) * sizeof *sums);
    int64_t total = 0;
    for (int64_t k = 0; k < n; k++)
        total += weights[rows[k]];
#if defined(__AVX512BW__)
    if (dim <= INT16_MAX) {
        const int64_t run = INT16_MAX / dim;
        int64_t w0 = 0;
        for (; w0 + 4 <= words; w0 += 4)
            superpose_block(recon, words, w0, 4, rows, n, weights, run, sums);
        if (w0 < words)
            superpose_block(recon, words, w0, (int)(words - w0), rows, n, weights, run, sums);
        return total;
    }
#else
    (void)dim;
#endif
    for (int64_t k = 0; k < n; k++) {
        const uint64_t *bits = recon + (int64_t)rows[k] * words;
        const int32_t w = weights[rows[k]];
        for (int64_t i = 0; i < 2 * words; i++) {
            const uint32_t half = (uint32_t)(bits[i / 2] >> 32 * (i % 2));
            int32_t *s = sums + 32 * i;
            for (int b = 0; b < 32; b++)
                s[b] += half >> b & 1 ? w : 0;
        }
    }
    return total;
}

/* Packs a +-1 vector into zero-padded 64-bit words, element j at bit
 * j % 64 of word j / 64: the one packer of every query and book row.
 * An element is +1 where its sign bit is clear.  With AVX-512BW, 64
 * elements at a time give one word, the complement of their sign bits.
 * Otherwise, and for the rest, eight elements are read as one word, and
 * the multiply gathers the eight low bits, byte k's to bit 56 + k,
 * without carries. */
static void pack(const int8_t *v, int64_t dim, int64_t words, uint64_t *out)
{
    uint8_t *bytes = (uint8_t *)out;
    memset(bytes, 0, (size_t)words * 8);
    int64_t j = 0;
#if defined(__AVX512BW__)
    for (; j + 64 <= dim; j += 64)
        out[j >> 6] = ~(uint64_t)_mm512_movepi8_mask(_mm512_loadu_si512(v + j));
#endif
    for (; j + 8 <= dim; j += 8) {
        uint64_t w;
        memcpy(&w, v + j, 8);
        w = ~w >> 7 & 0x0101010101010101ULL;
        bytes[j >> 3] = (uint8_t)(w * 0x0102040810204080ULL >> 56);
    }
    for (; j < dim; j++)
        bytes[j >> 3] |= (uint8_t)((v[j] > 0) << (j & 7));
}

/* pack() of each row of the C-contiguous (m, dim) book `rows`, into m rows of `out`. */
void resfact_pack(const int8_t *rows, int64_t m, int64_t dim, int64_t words, uint64_t *out)
{
    for (int64_t i = 0; i < m; i++)
        pack(rows + i * dim, dim, words, out + i * words);
}

/* Turns n random bytes into +-1 in place: +1 where a byte's top bit is
 * set, -1 elsewhere, as generate_codebook in vsa.py defines a codebook. */
void resfact_expand(int8_t *bytes, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        bytes[i] = (int8_t)(bytes[i] < 0 ? 1 : -1);
}

/* numpy's PCG64 (numpy/random/src/pcg64/pcg64.h): the 128-bit LCG
 * s -> PCG_MULT * s + inc, each draw the XSL-RR output of the state after
 * its step. */
typedef unsigned __int128 u128;
#define PCG_MULT ((u128)0x2360ED051FC65DA4ULL << 64 | 0x4385DF649FCCF645ULL)

static uint64_t pcg_output(u128 s)
{
    const uint64_t hi = (uint64_t)(s >> 64), x = hi ^ (uint64_t)s;
    const unsigned r = (unsigned)(hi >> 58);
    return x >> r | x << (-r & 63);
}

/* The multiplier *mult and increment *plus of k steps of the LCG, so that
 * they take s to *mult * s + *plus: numpy's pcg_advance_lcg_128 (Brown,
 * "Random number generation with arbitrary strides", 1994). */
static void pcg_jump(uint64_t k, u128 inc, u128 *mult, u128 *plus)
{
    u128 a = 1, c = 0, m = PCG_MULT;
    for (; k; k >>= 1) {
        if (k & 1) {
            a *= m;
            c = c * m + inc;
        }
        inc *= m + 1;
        m *= m;
    }
    *mult = a;
    *plus = c;
}

#if defined(__AVX512BW__) && defined(__AVX512DQ__)
/* One jump of 8 lanes of 128-bit states, held as their low and high
 * words: s -> a * s + c mod 2**128.  The high word of lo * a_lo comes
 * from four 32-bit products (vpmuludq); the cross terms need only their
 * low words (vpmullq). */
static inline __attribute__((always_inline)) void
lanes_jump(__m512i *lo, __m512i *hi, __m512i alo, __m512i alo_hi32, __m512i ahi,
           __m512i clo, __m512i chi)
{
    const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFF), lo_hi32 = _mm512_srli_epi64(*lo, 32);
    const __m512i p00 = _mm512_mul_epu32(*lo, alo), p01 = _mm512_mul_epu32(*lo, alo_hi32);
    const __m512i p10 = _mm512_mul_epu32(lo_hi32, alo), p11 = _mm512_mul_epu32(lo_hi32, alo_hi32);
    const __m512i mid = _mm512_add_epi64(_mm512_srli_epi64(p00, 32), _mm512_add_epi64(
        _mm512_and_si512(p01, low32), _mm512_and_si512(p10, low32)));
    __m512i h = _mm512_add_epi64(_mm512_add_epi64(p11, _mm512_srli_epi64(mid, 32)),
                                 _mm512_add_epi64(_mm512_srli_epi64(p01, 32),
                                                  _mm512_srli_epi64(p10, 32)));
    h = _mm512_add_epi64(h, _mm512_add_epi64(_mm512_mullo_epi64(*lo, ahi),
                                             _mm512_mullo_epi64(*hi, alo)));
    const __m512i l = _mm512_add_epi64(_mm512_slli_epi64(mid, 32), _mm512_and_si512(p00, low32));
    *lo = _mm512_add_epi64(l, clo);
    h = _mm512_add_epi64(h, chi);
    *hi = _mm512_mask_sub_epi64(h, _mm512_cmplt_epu64_mask(*lo, clo), h,
                                _mm512_set1_epi64(-1));
}

/* Bit l set where lane l's draw, the XSL-RR output (vprorvq) of its
 * state, shifted down by 11, is below `below`. */
static inline __attribute__((always_inline)) __mmask8 lanes_below(__m512i lo, __m512i hi,
                                                                  __m512i below)
{
    const __m512i out = _mm512_rorv_epi64(_mm512_xor_si512(hi, lo), _mm512_srli_epi64(hi, 58));
    return _mm512_cmplt_epu64_mask(_mm512_srli_epi64(out, 11), below);
}

/* resfact_flip() of out[0..64 * blocks) from the state s: 16 lanes in two
 * vectors, lane l holding the state of draw 16 * t + l, all stepped 16 at
 * a time; four such rounds give the 64 mask bits of one masked negation. */
static void flip_lanes(u128 s, u128 inc, int64_t blocks, uint64_t below, const int8_t *book,
                       int8_t *out)
{
    uint64_t lo[16], hi[16];
    for (int l = 0; l < 16; l++) {
        s = s * PCG_MULT + inc;
        lo[l] = (uint64_t)s;
        hi[l] = (uint64_t)(s >> 64);
    }
    u128 a, c;
    pcg_jump(16, inc, &a, &c);
    const __m512i alo = _mm512_set1_epi64((long long)(uint64_t)a);
    const __m512i alo_hi32 = _mm512_set1_epi64((long long)((uint64_t)a >> 32));
    const __m512i ahi = _mm512_set1_epi64((long long)(uint64_t)(a >> 64));
    const __m512i clo = _mm512_set1_epi64((long long)(uint64_t)c);
    const __m512i chi = _mm512_set1_epi64((long long)(uint64_t)(c >> 64));
    const __m512i limit = _mm512_set1_epi64((long long)below), zero = _mm512_setzero_si512();
    __m512i vlo[2] = {_mm512_loadu_si512(lo), _mm512_loadu_si512(lo + 8)};
    __m512i vhi[2] = {_mm512_loadu_si512(hi), _mm512_loadu_si512(hi + 8)};
    for (int64_t b = 0; b < blocks; b++) {
        uint64_t flips = 0;
        for (int k = 0; k < 8; k++) {
            flips |= (uint64_t)lanes_below(vlo[k & 1], vhi[k & 1], limit) << 8 * k;
            lanes_jump(&vlo[k & 1], &vhi[k & 1], alo, alo_hi32, ahi, clo, chi);
        }
        const __m512i x = _mm512_loadu_si512(book + 64 * b);
        _mm512_storeu_si512(out + 64 * b, _mm512_mask_sub_epi8(x, flips, zero, x));
    }
}
#endif

/* The n draws of numpy's Generator.random() from the PCG64 state
 * st = {state low word, state high word, inc low word, inc high word},
 * applied to the +-1 book[0..n): out[i] = -book[i] where draw i, u =
 * (raw >> 11) * 2**-53, is below p, and book[i] where it is not.  uniform
 * u < p exactly when raw >> 11 < ceil(p * 2**53), an integer test, for p
 * in [0, 1].  Leaves st as the n draws leave it; numpy's 32-bit buffer,
 * which random() neither reads nor writes, is not here.  With AVX-512BW
 * and DQ, blocks of 64 draws come from flip_lanes() and the state jumps
 * past them; the rest, and every draw elsewhere, are stepped one by one. */
void resfact_flip(uint64_t *st, int64_t n, double p, const int8_t *book, int8_t *out)
{
    const uint64_t below = (uint64_t)ceil(p * 0x1p53);
    const u128 inc = (u128)st[3] << 64 | st[2];
    u128 s = (u128)st[1] << 64 | st[0];
    int64_t i = 0;
#if defined(__AVX512BW__) && defined(__AVX512DQ__)
    if (n >= 64) {
        u128 a, c;
        flip_lanes(s, inc, n / 64, below, book, out);
        i = n / 64 * 64;
        pcg_jump((uint64_t)i, inc, &a, &c);
        s = a * s + c;
    }
#endif
    for (; i < n; i++) {
        s = s * PCG_MULT + inc;
        out[i] = (int8_t)(pcg_output(s) >> 11 < below ? -book[i] : book[i]);
    }
    st[0] = (uint64_t)s;
    st[1] = (uint64_t)(s >> 64);
}

/* est[j] = the sign of 2 * sums[j] - total for j < dim, 0 where that is
 * exactly zero; returns the number of zeros.  The restrict pointers tell
 * the compiler that the int8 stores alias no sum, so it vectorizes the
 * loop. */
static int64_t signs(const int32_t *restrict sums, int64_t total, int64_t dim,
                     int8_t *restrict est)
{
    int64_t ties = 0;
    for (int64_t j = 0; j < dim; j++) {
        const int64_t s = 2 * (int64_t)sums[j] - total;
        est[j] = (int8_t)((s > 0) - (s < 0));
        ties += s == 0;
    }
    return ties;
}

/* est[j], j < dim, = the sign of the float64 sum, from 0 in row order
 * k < n, of +-weights[rows[k]] as row rows[k] of the packed `recon` has
 * bit j set or clear, 0 where it is exactly zero; returns the number of
 * zeros.  With AVX-512BW a word's 64 sums are eight vectors of doubles,
 * signed by two compare masks and stored with one masked byte store;
 * the plain loop multiplies by +-1, which is exact, so both agree. */
static int64_t real_signs(const uint64_t *recon, int64_t words, int64_t dim, const int32_t *rows,
                          int64_t n, const double *weights, int8_t *est)
{
    int64_t ties = 0;
    for (int64_t i = 0; i < words; i++) {
        const int64_t left = dim - 64 * i;
#if defined(__AVX512BW__)
        __m512d acc[8] = {};
        for (int64_t k = 0; k < n; k++) {
            const uint8_t *bits = (const uint8_t *)(recon + (int64_t)rows[k] * words + i);
            const double w = weights[rows[k]];
            const __m512d pos = _mm512_set1_pd(w), neg = _mm512_set1_pd(-w);
            for (int q = 0; q < 8; q++)
                acc[q] = _mm512_add_pd(acc[q], _mm512_mask_blend_pd(bits[q], neg, pos));
        }
        __mmask64 above = 0, below = 0;
        for (int q = 0; q < 8; q++) {
            const __m512d zero = _mm512_setzero_pd();
            above |= (__mmask64)_mm512_cmp_pd_mask(acc[q], zero, _CMP_GT_OQ) << 8 * q;
            below |= (__mmask64)_mm512_cmp_pd_mask(acc[q], zero, _CMP_LT_OQ) << 8 * q;
        }
        const __mmask64 tail = left < 64 ? (1ULL << left) - 1 : ~0ULL;
        const __m512i s = _mm512_mask_mov_epi8(_mm512_maskz_mov_epi8(above, _mm512_set1_epi8(1)),
                                               below, _mm512_set1_epi8(-1));
        _mm512_mask_storeu_epi8(est + 64 * i, tail, s);
        ties += __builtin_popcountll(~(above | below) & tail);
#else
        double sums[64] = {0};
        for (int64_t k = 0; k < n; k++) {
            const uint64_t b = recon[(int64_t)rows[k] * words + i];
            const double w = weights[rows[k]];
            for (int t = 0; t < 64; t++)
                sums[t] += (double)(2 * (int)(b >> t & 1) - 1) * w;
        }
        for (int64_t t = 0; t < 64 && t < left; t++) {
            est[64 * i + t] = (int8_t)((sums[t] > 0) - (sums[t] < 0));
            ties += sums[t] == 0;
        }
#endif
    }
    return ties;
}

/* The least numerator n in [-dim, dim] with n / dim > t, in double
 * division, or dim + 1 if there is none.  Correctly rounded division is
 * monotone in n, so n / dim > t holds exactly when n >= least_above(t, dim):
 * brn's and acf's thresholds compare numerators with it. */
static int64_t least_above(double t, int64_t dim)
{
    int64_t lo = -dim, hi = dim + 1;
    while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if ((double)mid / (double)dim > t)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

/* Factor f's update within a sweep, on the (factors, dim) int8
 * estimates `working`:
 *
 * 1. unbind: x times every other factor's row of working;
 * 2. pack the result into the query and search (resfact_search): the
 *    integer numerators, in p->nums[f];
 * 3. brn and acf (`noise` NULL): the rows whose numerator is at least
 *    `least` survive, weighted by their numerators;
 *    imf: for M normals z drawn as noise.standard_normal(M) draws them,
 *    attentions[f] = numerator / dim + sigma * z and weight = numerator
 *    + (dim * sigma) * z, as numpy computes them, and the rows whose
 *    attention is above `threshold` (strict) survive;
 * 4. working[f] becomes the sign of the survivors' weighted sum
 *    (superpose, or real_signs for imf), with 0 where that sum is
 *    exactly zero.
 *
 * Returns the number of zeros left in working[f]: dim if no row
 * survives, since working[f] is then all zeros.
 *
 * The survivors are listed in row order, branchless: in dense brn about
 * half the rows survive, at random.  With AVX-512, 16 (imf: 8) rows at a
 * time: the indices of those that pass are compressed to the front of a
 * vector, and all its lanes are stored, which stays within rows[0..m)
 * since n <= i. */
static int64_t resfact_update(const struct resfact_plan *p, int64_t f, const int8_t *x,
                              int8_t *working, double *attentions, int64_t least,
                              double threshold, double sigma, bitgen_t *noise)
{
    const int64_t m = p->m, dim = p->dim, book = f * m * p->words;
    int8_t *u = p->unbound;
    memcpy(u, x, (size_t)dim);
    for (int64_t g = 0; g < p->factors; g++) {
        if (g == f)
            continue;
        const int8_t *e = working + g * dim;
        for (int64_t j = 0; j < dim; j++)
            u[j] = (int8_t)(u[j] * e[j]);
    }
    pack(u, dim, p->words, p->query);
    resfact_search(p, f, p->query, -1);
    const int32_t *nums = p->nums + f * 64 * p->mwords;
    int64_t n = 0, i = 0;
    if (noise) {
        double *alpha = attentions + f * m;
        random_standard_normal_fill(noise, m, alpha);  /* then replaced */
        const double scale = (double)dim * sigma;
        for (int64_t r = 0; r < m; r++) {
            const double z = alpha[r];
            alpha[r] = nums[r] / (double)dim + sigma * z;
            p->weights[r] = nums[r] + scale * z;
        }
#if defined(__AVX512VL__)
        const __m512d t = _mm512_set1_pd(threshold);
        for (__m256i idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7); i + 8 <= m; i += 8) {
            const __mmask8 pass = _mm512_cmp_pd_mask(_mm512_loadu_pd(alpha + i), t, _CMP_GT_OQ);
            _mm256_storeu_si256((__m256i *)(p->rows + n), _mm256_maskz_compress_epi32(pass, idx));
            n += __builtin_popcount(pass);
            idx = _mm256_add_epi32(idx, _mm256_set1_epi32(8));
        }
#endif
        for (; i < m; i++) {
            p->rows[n] = (int32_t)i;
            n += alpha[i] > threshold;
        }
        return real_signs(p->recon + book, p->words, dim, p->rows, n, p->weights,
                          working + f * dim);
    }
#if defined(__AVX512F__)
    const __m512i k = _mm512_set1_epi32((int32_t)least);
    for (__m512i idx = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
         i + 16 <= m; i += 16) {
        const __mmask16 pass = _mm512_cmpge_epi32_mask(_mm512_loadu_si512(nums + i), k);
        _mm512_storeu_si512(p->rows + n, _mm512_maskz_compress_epi32(pass, idx));
        n += __builtin_popcount(pass);
        idx = _mm512_add_epi32(idx, _mm512_set1_epi32(16));
    }
#endif
    for (; i < m; i++) {
        p->rows[n] = (int32_t)i;
        n += nums[i] >= least;
    }
    const int64_t total = superpose(p->recon + book, p->words, dim, p->rows, n, nums, p->sums);
    return signs(p->sums, total, dim, working + f * dim);
}

/* Replaces the zeros of row[0..n), in index order, with +-1 draws from
 * `ties`, as row[row == 0] = rng.integers(0, 2, size=zeros,
 * dtype=np.int8) * 2 - 1 does with the same generator.  numpy draws such
 * an int8 by Lemire's bounded method with range 1, which never rejects:
 * the value is bit 7 of the next byte of a 32-bit buffer that
 * next_uint32 refills and that is used low byte first.  The buffer
 * starts empty on every call, as on every numpy call.  All ties of
 * every variant are drawn here. */
void resfact_ties(int8_t *row, int64_t n, bitgen_t *ties)
{
    uint32_t buf = 0;
    int left = 0;
    for (int64_t j = 0; j < n; j++) {
        if (row[j])
            continue;
        if (!left) {
            buf = ties->next_uint32(ties->state);
            left = 4;
        }
        row[j] = (int8_t)((int)(buf >> 7 & 1) * 2 - 1);
        buf >>= 8;
        left--;
    }
}

/* Sets each factor's row of the (factors, dim) `working`, in factor
 * order, to the majority of the m packed rows of its search book: the
 * sign of each column's sum, 2 * c - m for c rows with the bit set,
 * which superpose() counts with unit weights.  Each factor's zeros are
 * then drawn from `init` by one resfact_ties call, the draws of
 * sign_to_bipolar in vsa.py on the int64 column sums with the same
 * generator.  Uses the plan's rows and sums scratch, and factor f's
 * nums for the unit weights, so that it no longer keeps a search. */
void resfact_init(const struct resfact_plan *p, int8_t *working, bitgen_t *init)
{
    const int64_t m = p->m, dim = p->dim;
    for (int64_t i = 0; i < m; i++)
        p->rows[i] = (int32_t)i;
    for (int64_t f = 0; f < p->factors; f++) {
        int8_t *est = working + f * dim;
        int32_t *ones = p->nums + f * 64 * p->mwords;
        for (int64_t i = 0; i < m; i++)
            ones[i] = 1;
        p->flags[f] &= ~KEPT;
        superpose(p->search + f * m * p->words, p->words, dim, p->rows, m, ones, p->sums);
        if (signs(p->sums, m, dim, est))
            resfact_ties(est, dim, init);
    }
}

/* Whether every factor has some numerator of at least `least`: brn's and
 * acf's stopping rule. */
static int all_reach(const struct resfact_plan *p, int64_t least)
{
    for (int64_t f = 0; f < p->factors; f++) {
        const int32_t *nums = p->nums + f * 64 * p->mwords;
        int reached = 0;
        for (int64_t i = 0; i < p->m; i++)
            reached |= nums[i] >= least;
        if (!reached)
            return 0;
    }
    return 1;
}

/* Whether some attention of every factor is above `convergence` (strict):
 * imf's stopping rule. */
static int all_above(const double *attentions, int64_t factors, int64_t m, double convergence)
{
    for (int64_t f = 0; f < factors; f++) {
        const double *alpha = attentions + f * m;
        int64_t i = 0;
        while (i < m && !(alpha[i] > convergence))
            i++;
        if (i == m)
            return 0;
    }
    return 1;
}

/* Runs update sweeps over the plan's factors, in order, on the
 * (factors, dim) `working` estimates and (factors, m) `attentions`, in
 * place, imf's with noise of std `sigma` from `noise` (else NULL).
 * Each factor's zeros after its update are resolved from `ties` at once,
 * before the next factor unbinds it; a factor with no survivor thus
 * draws all dim values.  The sweeps stop after the first one where every
 * factor's maximum attention is above `convergence` (strict: the
 * decoder's one stopping rule), or after `budget` sweeps.  brn's and
 * acf's attentions, numerator / dim, are written once, from the last
 * sweep's numerators, and both thresholds are compared as numerators.
 * Returns the number of sweeps run and sets *converged to whether the
 * last one passed. */
int64_t resfact_run(const struct resfact_plan *p, const int8_t *x, int8_t *working,
                    double *attentions, double threshold, double sigma, double convergence,
                    int64_t budget, bitgen_t *ties, bitgen_t *noise, int64_t *converged)
{
    const int64_t factors = p->factors, m = p->m, dim = p->dim;
    const int64_t survive = least_above(threshold, dim), stop = least_above(convergence, dim);
    int64_t sweep = 0;
    *converged = 0;
    while (sweep < budget && !*converged) {
        sweep++;
        for (int64_t f = 0; f < factors; f++)
            if (resfact_update(p, f, x, working, attentions, survive, threshold, sigma, noise))
                resfact_ties(working + f * dim, dim, ties);
        *converged = noise ? all_above(attentions, factors, m, convergence)
                           : all_reach(p, stop);
    }
    if (!noise && sweep)
        for (int64_t f = 0; f < factors; f++)
            for (int64_t i = 0; i < m; i++)
                attentions[f * m + i] = p->nums[f * 64 * p->mwords + i] / (double)dim;
    return sweep;
}
