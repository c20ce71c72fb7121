/* ChaCha20 (RFC 8439) and SipHash-2-4 kernels for the page sealer.

   Every word is loaded and stored through explicit little-endian byte
   shuffles, so the output is the same on any host.  No global state:
   all working state lives on the C stack, which makes the kernels safe
   to call from any domain.  The native entry points never allocate;
   the bytecode ones box the int64 results.  The OCaml reference
   implementations (Chacha20_ref, Siphash_ref) are the test oracles. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static inline uint32_t ld32(const unsigned char *p)
{
  return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16
         | (uint32_t)p[3] << 24;
}

static inline uint64_t ld64(const unsigned char *p)
{
  return (uint64_t)ld32(p) | (uint64_t)ld32(p + 4) << 32;
}

static inline void st32(unsigned char *p, uint32_t v)
{
  p[0] = (unsigned char)v; p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16); p[3] = (unsigned char)(v >> 24);
}

/* --- ChaCha20 ---------------------------------------------------------- */

#define ROTL32(x, n) (((x) << (n)) | ((x) >> (32 - (n))))
#define QR(a, b, c, d)                                                       \
  a += b; d ^= a; d = ROTL32(d, 16); c += d; b ^= c; b = ROTL32(b, 12);      \
  a += b; d ^= a; d = ROTL32(d, 8);  c += d; b ^= c; b = ROTL32(b, 7)

/* XOR [len] bytes of [src] with the keystream into [dst]; block k of the
   stream uses counter [counter + k] (mod 2^32).  [src] may be [dst]. */
static void chacha20_xor(const unsigned char *key, const unsigned char *nonce,
                         uint32_t counter, const unsigned char *src,
                         unsigned char *dst, size_t len)
{
  uint32_t in[16] = { 0x61707865, 0x3320646e, 0x79622d32, 0x6b206574 };
  for (int i = 0; i < 8; i++) in[4 + i] = ld32(key + 4 * i);
  in[12] = counter;
  for (int i = 0; i < 3; i++) in[13 + i] = ld32(nonce + 4 * i);
  for (size_t off = 0; off < len; off += 64, in[12]++) {
    uint32_t x[16];
    unsigned char ks[64];
    memcpy(x, in, sizeof x);
    for (int r = 0; r < 10; r++) {
      QR(x[0], x[4], x[8], x[12]); QR(x[1], x[5], x[9], x[13]);
      QR(x[2], x[6], x[10], x[14]); QR(x[3], x[7], x[11], x[15]);
      QR(x[0], x[5], x[10], x[15]); QR(x[1], x[6], x[11], x[12]);
      QR(x[2], x[7], x[8], x[13]); QR(x[3], x[4], x[9], x[14]);
    }
    for (int i = 0; i < 16; i++) st32(ks + 4 * i, x[i] + in[i]);
    size_t n = len - off < 64 ? len - off : 64;
    for (size_t i = 0; i < n; i++) dst[off + i] = src[off + i] ^ ks[i];
  }
}

value sim_chacha20_xor(value key, value nonce, intnat counter, value src,
                       value dst)
{
  chacha20_xor(Bytes_val(key), Bytes_val(nonce), (uint32_t)counter,
               Bytes_val(src), Bytes_val(dst), caml_string_length(dst));
  return Val_unit;
}

value sim_chacha20_xor_byte(value key, value nonce, value counter, value src,
                            value dst)
{
  return sim_chacha20_xor(key, nonce, Long_val(counter), src, dst);
}

/* --- SipHash-2-4 ------------------------------------------------------- */

#define ROTL64(x, n) (((x) << (n)) | ((x) >> (64 - (n))))

typedef struct { uint64_t v0, v1, v2, v3; } sip;

static inline void sipround(sip *s)
{
  s->v0 += s->v1; s->v1 = ROTL64(s->v1, 13); s->v1 ^= s->v0;
  s->v0 = ROTL64(s->v0, 32);
  s->v2 += s->v3; s->v3 = ROTL64(s->v3, 16); s->v3 ^= s->v2;
  s->v0 += s->v3; s->v3 = ROTL64(s->v3, 21); s->v3 ^= s->v0;
  s->v2 += s->v1; s->v1 = ROTL64(s->v1, 17); s->v1 ^= s->v2;
  s->v2 = ROTL64(s->v2, 32);
}

int64_t sim_siphash(value key, value data)
{
  const unsigned char *k = Bytes_val(key), *p = Bytes_val(data);
  size_t n = caml_string_length(data);
  uint64_t k0 = ld64(k), k1 = ld64(k + 8);
  sip s = { k0 ^ 0x736f6d6570736575ULL, k1 ^ 0x646f72616e646f6dULL,
            k0 ^ 0x6c7967656e657261ULL, k1 ^ 0x7465646279746573ULL };
  for (const unsigned char *end = p + (n & ~(size_t)7); p < end; p += 8) {
    uint64_t m = ld64(p);
    s.v3 ^= m; sipround(&s); sipround(&s); s.v0 ^= m;
  }
  uint64_t b = (uint64_t)n << 56;
  for (size_t i = 0; i < (n & 7); i++) b |= (uint64_t)p[i] << (8 * i);
  s.v3 ^= b; sipround(&s); sipround(&s); s.v0 ^= b;
  s.v2 ^= 0xff;
  for (int i = 0; i < 4; i++) sipround(&s);
  return (int64_t)(s.v0 ^ s.v1 ^ s.v2 ^ s.v3);
}

value sim_siphash_byte(value key, value data)
{
  return caml_copy_int64(sim_siphash(key, data));
}
