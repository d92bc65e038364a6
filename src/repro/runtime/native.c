/* Native kernels of the batched inference runtime.
 *
 * Four kernels, loaded through ctypes by native.py:
 *
 *   depthwise_f32  float32 depthwise conv + bias + activation;
 *   depthwise_s8   int8 depthwise conv, exact accumulation, then the
 *                  requantization epilogue;
 *   requantize     the int8 epilogue after a BLAS conv GEMM;
 *   dequantize     the float epilogue after a BLAS conv GEMM.
 *
 * Each one replays the per-element arithmetic of the NumPy kernel it stands
 * in for (repro/runtime/kernels.py), so its output is bit-identical.  That
 * holds only when the compiler neither fuses a multiply and an add into an
 * FMA nor reorders float operations: build with -ffp-contract=off and
 * without -ffast-math.
 *
 * Arrays are C-contiguous; native.py checks dtypes and sizes before every
 * call.  The depthwise kernels take a float32 scratch buffer sized for one
 * image: kh * kw * c tap-major weights, then the (h + 2 * pad) *
 * (w + 2 * pad) * c padded channels-last image.  They rewrite all of it on
 * every call.
 */
#include <stdint.h>
#include <string.h>

/* Channels per accumulator group.  A group's accumulators stay in vector
 * registers while the taps are summed into them. */
#define GROUP 8

enum { ACT_NONE = 0, ACT_RELU = 1, ACT_RELU6 = 2 };

/* np.maximum(v, 0.0): NaN passes through, and both zeros give +0.0. */
static inline float relu(float v)
{
    return (v > 0.0f || v != v) ? v : 0.0f;
}

/* np.clip(v, 0.0, 6.0): NaN and -0.0 pass through. */
static inline float relu6(float v)
{
    return v < 0.0f ? 0.0f : (v > 6.0f ? 6.0f : v);
}

/* clip(rint(a * multiplier), qmin, qmax) as int8, where a is float32 and
 * the multiply runs in double, as NumPy promotes it.  Clamping before
 * rounding gives the same integer, since the bounds are integers.  The
 * clamped value is at most 127 in magnitude, and for such values adding and
 * subtracting 1.5 * 2**52 is rint: it rounds to an integer, ties to even,
 * in the default rounding mode (np.rint does the same).  This form has no
 * branch, so the loops around it vectorize. */
static inline int8_t requantize_one(float a, double multiplier, double qmin,
                                    double qmax)
{
    double v = (double)a * multiplier;
    v = v < qmin ? qmin : v;
    v = v > qmax ? qmax : v;
    v = (v + 0x1.8p52) - 0x1.8p52;
    return (int8_t)(int32_t)v;
}

/* Copy one NCHW image into a float32 channels-last buffer with a zero halo
 * of `pad` pixels (int8 codes convert exactly).  The halo is rezeroed on
 * every call: layers with the same padded size but a different (h, pad)
 * split share the buffer. */
#define DEFINE_PAD(name, type)                                              \
static void name(const type *x, float *xp, long c, long h, long w, long pad)\
{                                                                           \
    long row = (w + 2 * pad) * c;                                           \
    memset(xp, 0, sizeof(float) * pad * row);                               \
    memset(xp + (h + pad) * row, 0, sizeof(float) * pad * row);             \
    for (long y = 0; y < h; y++) {                                          \
        float *dst = xp + (y + pad) * row;                                  \
        memset(dst, 0, sizeof(float) * pad * c);                            \
        memset(dst + (w + pad) * c, 0, sizeof(float) * pad * c);            \
        dst += pad * c;                                                     \
        for (long i = 0; i < w; i++)                                        \
            for (long ch = 0; ch < c; ch++)                                 \
                dst[i * c + ch] = x[(ch * h + y) * w + i];                  \
    }                                                                       \
}

DEFINE_PAD(pad_f32, float)
DEFINE_PAD(pad_s8, int8_t)

/* (c, taps) weights to float32 tap-major (taps, c), so each tap's channel
 * row is contiguous. */
#define DEFINE_TRANSPOSE(name, type)                                        \
static void name(const type *w, float *wt, long c, long taps)              \
{                                                                           \
    for (long ch = 0; ch < c; ch++)                                         \
        for (long t = 0; t < taps; t++)                                     \
            wt[t * c + ch] = w[ch * taps + t];                              \
}

DEFINE_TRANSPOSE(transpose_f32, float)
DEFINE_TRANSPOSE(transpose_s8, int8_t)

/* Offset of each tap's input pixel from the window origin, in elements of
 * the padded channels-last image. */
static void tap_offsets(long *offset, long kh, long kw, long wp, long c)
{
    for (long t = 0; t < kh * kw; t++)
        offset[t] = ((t / kw) * wp + t % kw) * c;
}

/* Sum the taps of `width` <= GROUP channels at one output pixel: the tap
 * (0, 0) product, then acc = acc + x * w for the other taps in row-major
 * order, which is the order of the NumPy tap loop.  Halo taps multiply the
 * zero padding as the NumPy loop does, so signed zeros come out the same.
 * With a constant width the loops unroll and the accumulators stay in
 * vector registers. */
static inline void sum_taps(const float *window, const float *wt,
                            const long *offset, long taps, long c,
                            float *acc, long width)
{
    for (long ch = 0; ch < width; ch++)
        acc[ch] = window[ch] * wt[ch];
    for (long t = 1; t < taps; t++) {
        const float *xr = window + offset[t];
        const float *wr = wt + t * c;
        for (long ch = 0; ch < width; ch++)
            acc[ch] = acc[ch] + xr[ch] * wr[ch];
    }
}

/* One output pixel of a float32 group: the taps, then + bias, then the
 * activation (fused_conv's epilogue), stored to NCHW. */
static inline void group_f32(const float *window, const float *wt,
                             const long *offset, long taps, long c,
                             const float *bias, long act, float *o,
                             long plane, long width)
{
    float acc[GROUP];
    sum_taps(window, wt, offset, taps, c, acc, width);
    if (bias)
        for (long ch = 0; ch < width; ch++)
            acc[ch] = acc[ch] + bias[ch];
    if (act == ACT_RELU)
        for (long ch = 0; ch < width; ch++)
            acc[ch] = relu(acc[ch]);
    else if (act == ACT_RELU6)
        for (long ch = 0; ch < width; ch++)
            acc[ch] = relu6(acc[ch]);
    for (long ch = 0; ch < width; ch++)
        o[ch * plane] = acc[ch];
}

/* One output pixel of an int8 group.  The products of int8 codes are
 * integers of magnitude at most 2**14, and the caller comes here only when
 * the accumulator bound is below 2**24, so every float32 partial sum is an
 * exact integer: the int32 accumulation, and the same float32 value the
 * NumPy path accumulates.  Then the bias add in float32 and the requantize
 * epilogue, as fused_qconv does them. */
static inline void group_s8(const float *window, const float *wt,
                            const long *offset, long taps, long c,
                            const int32_t *bias, const double *multiplier,
                            double qmin, double qmax, int8_t *o, long plane,
                            long width)
{
    float acc[GROUP];
    int8_t codes[GROUP];
    sum_taps(window, wt, offset, taps, c, acc, width);
    for (long ch = 0; ch < width; ch++)
        codes[ch] = requantize_one(acc[ch] + (float)bias[ch],
                                   multiplier[ch], qmin, qmax);
    for (long ch = 0; ch < width; ch++)
        o[ch * plane] = codes[ch];
}

/* x (n, c, h, w), w (c, 1, kh, kw), bias (c) or NULL, out (n, c, oh, ow). */
void depthwise_f32(const float *x, const float *w, const float *bias,
                   float *out, float *scratch, long n, long c, long h,
                   long wd, long kh, long kw, long stride, long pad, long act)
{
    long taps = kh * kw, wp = wd + 2 * pad;
    long oh = (h + 2 * pad - kh) / stride + 1;
    long ow = (wp - kw) / stride + 1;
    long plane = oh * ow;
    long offset[taps];
    float *wt = scratch;
    float *xp = scratch + taps * c;
    tap_offsets(offset, kh, kw, wp, c);
    transpose_f32(w, wt, c, taps);
    for (long i = 0; i < n; i++) {
        pad_f32(x + i * c * h * wd, xp, c, h, wd, pad);
        for (long oy = 0; oy < oh; oy++)
            for (long ox = 0; ox < ow; ox++) {
                const float *window = xp + (oy * stride * wp + ox * stride) * c;
                float *o = out + i * c * plane + oy * ow + ox;
                long c0 = 0;
                for (; c0 + GROUP <= c; c0 += GROUP)
                    group_f32(window + c0, wt + c0, offset, taps, c,
                              bias ? bias + c0 : NULL, act, o + c0 * plane,
                              plane, GROUP);
                if (c0 < c)
                    group_f32(window + c0, wt + c0, offset, taps, c,
                              bias ? bias + c0 : NULL, act, o + c0 * plane,
                              plane, c - c0);
            }
    }
}

/* q (n, c, h, w) int8, w (c, 1, kh, kw) int8, bias (c) int32, multiplier
 * (c) double, out (n, c, oh, ow) int8. */
void depthwise_s8(const int8_t *x, const int8_t *w, const int32_t *bias,
                  const double *multiplier, int8_t *out, float *scratch,
                  long n, long c, long h, long wd, long kh, long kw,
                  long stride, long pad, long qmin, long qmax)
{
    long taps = kh * kw, wp = wd + 2 * pad;
    long oh = (h + 2 * pad - kh) / stride + 1;
    long ow = (wp - kw) / stride + 1;
    long plane = oh * ow;
    double lo = (double)qmin, hi = (double)qmax;
    long offset[taps];
    float *wt = scratch;
    float *xp = scratch + taps * c;
    tap_offsets(offset, kh, kw, wp, c);
    transpose_s8(w, wt, c, taps);
    for (long i = 0; i < n; i++) {
        pad_s8(x + i * c * h * wd, xp, c, h, wd, pad);
        for (long oy = 0; oy < oh; oy++)
            for (long ox = 0; ox < ow; ox++) {
                const float *window = xp + (oy * stride * wp + ox * stride) * c;
                int8_t *o = out + i * c * plane + oy * ow + ox;
                long c0 = 0;
                for (; c0 + GROUP <= c; c0 += GROUP)
                    group_s8(window + c0, wt + c0, offset, taps, c,
                             bias + c0, multiplier + c0, lo, hi,
                             o + c0 * plane, plane, GROUP);
                if (c0 < c)
                    group_s8(window + c0, wt + c0, offset, taps, c,
                             bias + c0, multiplier + c0, lo, hi,
                             o + c0 * plane, plane, c - c0);
            }
    }
}

/* acc (n, c, spatial) float32 exact integers, bias (c) int32, multiplier
 * (c) double, out (n, c, spatial) int8: fused_qconv's epilogue
 * acc += bias (float32), then clip(rint(acc * multiplier), qmin, qmax). */
void requantize(const float *acc, const int32_t *bias,
                const double *multiplier, int8_t *out, long n, long c,
                long spatial, long qmin, long qmax)
{
    double lo = (double)qmin, hi = (double)qmax;
    for (long i = 0; i < n; i++)
        for (long ch = 0; ch < c; ch++) {
            const float *a = acc + (i * c + ch) * spatial;
            int8_t *o = out + (i * c + ch) * spatial;
            float b = (float)bias[ch];
            double m = multiplier[ch];
            for (long s = 0; s < spatial; s++)
                o[s] = requantize_one(a[s] + b, m, lo, hi);
        }
}

/* acc (n, c, spatial) float32, dequant (c) double, bias (c) float32 or
 * NULL, out (n, c, spatial) float32: fused_qconv_dequant's epilogue
 * (float)(acc * dequant), then + bias, then the activation. */
void dequantize(const float *acc, const double *dequant, const float *bias,
                float *out, long n, long c, long spatial, long act)
{
    for (long i = 0; i < n; i++)
        for (long ch = 0; ch < c; ch++) {
            const float *a = acc + (i * c + ch) * spatial;
            float *o = out + (i * c + ch) * spatial;
            double d = dequant[ch];
            for (long s = 0; s < spatial; s++)
                o[s] = (float)((double)a[s] * d);
            if (bias) {
                float b = bias[ch];
                for (long s = 0; s < spatial; s++)
                    o[s] = o[s] + b;
            }
            if (act == ACT_RELU)
                for (long s = 0; s < spatial; s++)
                    o[s] = relu(o[s]);
            else if (act == ACT_RELU6)
                for (long s = 0; s < spatial; s++)
                    o[s] = relu6(o[s]);
        }
}
