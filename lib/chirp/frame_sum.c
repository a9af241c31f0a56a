/* The Chirp envelope's sum: MurmurHash3_x64_128 with seed 0, written
   h1 then h2, each little-endian.  Protocol.sum_into calls it as a
   noalloc external; the OCaml side checks both ranges, so this code
   only reads [len] bytes at [src + pos] and writes 16 at [dst + at]. */

#include <stdint.h>
#include <string.h>

#include <caml/mlvalues.h>

static const uint64_t c1 = 0x87c37b91114253d5ULL;
static const uint64_t c2 = 0x4cf5ad432745937fULL;

static inline uint64_t rotl64(uint64_t x, int r)
{
  return (x << r) | (x >> (64 - r));
}

static inline uint64_t fmix64(uint64_t k)
{
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

static inline uint64_t load_le64(const unsigned char *p)
{
  uint64_t v;
  memcpy(&v, p, 8);
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  return v;
}

static inline void store_le64(unsigned char *p, uint64_t v)
{
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  v = __builtin_bswap64(v);
#endif
  memcpy(p, &v, 8);
}

value idbox_frame_sum(value src, value pos, value len, value dst, value at)
{
  const unsigned char *data =
      (const unsigned char *)String_val(src) + Long_val(pos);
  const uint64_t n = (uint64_t)Long_val(len);
  const unsigned char *stop = data + (n & ~(uint64_t)15);
  uint64_t h1 = 0, h2 = 0, k1 = 0, k2 = 0;
  unsigned rest = (unsigned)(n & 15), j;

  for (; data < stop; data += 16) {
    k1 = load_le64(data);
    k2 = load_le64(data + 8);
    h1 ^= rotl64(k1 * c1, 31) * c2;
    h1 = (rotl64(h1, 27) + h2) * 5 + 0x52dce729;
    h2 ^= rotl64(k2 * c2, 33) * c1;
    h2 = (rotl64(h2, 31) + h1) * 5 + 0x38495ab5;
  }

  /* The 0-15 byte tail: bytes 8.. into k2, bytes ..7 into k1. */
  k1 = 0;
  k2 = 0;
  for (j = rest; j > 8; j--) k2 = (k2 << 8) | data[j - 1];
  for (j = rest < 8 ? rest : 8; j > 0; j--) k1 = (k1 << 8) | data[j - 1];
  if (rest > 8) h2 ^= rotl64(k2 * c2, 33) * c1;
  if (rest > 0) h1 ^= rotl64(k1 * c1, 31) * c2;

  h1 ^= n;
  h2 ^= n;
  h1 += h2;
  h2 += h1;
  h1 = fmix64(h1);
  h2 = fmix64(h2);
  h1 += h2;
  h2 += h1;

  unsigned char *out = (unsigned char *)Bytes_val(dst) + Long_val(at);
  store_le64(out, h1);
  store_le64(out + 8, h2);
  return Val_unit;
}
