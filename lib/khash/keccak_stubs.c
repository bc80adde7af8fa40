/* Keccak-256 (the pre-NIST padding 0x01 .. 0x80 that Ethereum uses) as a
   portable C99 kernel: Keccak-f[1600] with rate 1088 / capacity 512.

   One entry point, [khash_keccak256 msg out], called from OCaml as a
   [@@noalloc] external: it absorbs straight from the OCaml string (its
   length from [caml_string_length], so embedded NUL bytes count), keeps the
   200-byte state on the C stack and writes the 32-byte digest into [out].
   There are no globals and no allocation, so any domain may call it at any
   time and it never interacts with the GC.

   Lanes are read and written little-endian by byte assembly, which is
   independent of the host's byte order; compilers fold it into one load or
   store where the host allows. */

#include <stddef.h>
#include <stdint.h>

#include <caml/mlvalues.h>

#define RATE 136 /* bytes: 17 lanes */

static const uint64_t round_constants[24] = {
  UINT64_C(0x0000000000000001), UINT64_C(0x0000000000008082),
  UINT64_C(0x800000000000808A), UINT64_C(0x8000000080008000),
  UINT64_C(0x000000000000808B), UINT64_C(0x0000000080000001),
  UINT64_C(0x8000000080008081), UINT64_C(0x8000000000008009),
  UINT64_C(0x000000000000008A), UINT64_C(0x0000000000000088),
  UINT64_C(0x0000000080008009), UINT64_C(0x000000008000000A),
  UINT64_C(0x000000008000808B), UINT64_C(0x800000000000008B),
  UINT64_C(0x8000000000008089), UINT64_C(0x8000000000008003),
  UINT64_C(0x8000000000008002), UINT64_C(0x8000000000000080),
  UINT64_C(0x000000000000800A), UINT64_C(0x800000008000000A),
  UINT64_C(0x8000000080008081), UINT64_C(0x8000000000008080),
  UINT64_C(0x0000000080000001), UINT64_C(0x8000000080008008)
};

#define ROTL(x, n) (((x) << (n)) | ((x) >> (64 - (n))))

static inline uint64_t load_le(const unsigned char *p)
{
  return (uint64_t)p[0] | (uint64_t)p[1] << 8 | (uint64_t)p[2] << 16
         | (uint64_t)p[3] << 24 | (uint64_t)p[4] << 32 | (uint64_t)p[5] << 40
         | (uint64_t)p[6] << 48 | (uint64_t)p[7] << 56;
}

static inline void store_le(unsigned char *p, uint64_t v)
{
  p[0] = (unsigned char)v;
  p[1] = (unsigned char)(v >> 8);
  p[2] = (unsigned char)(v >> 16);
  p[3] = (unsigned char)(v >> 24);
  p[4] = (unsigned char)(v >> 32);
  p[5] = (unsigned char)(v >> 40);
  p[6] = (unsigned char)(v >> 48);
  p[7] = (unsigned char)(v >> 56);
}

/* The permutation.  Lane (x, y) is s[x + 5*y].  The lanes live in locals
   for all 24 rounds; theta, rho+pi and chi are written out lane by lane. */
static void keccak_f(uint64_t s[25])
{
  uint64_t a0 = s[0], a1 = s[1], a2 = s[2], a3 = s[3], a4 = s[4];
  uint64_t a5 = s[5], a6 = s[6], a7 = s[7], a8 = s[8], a9 = s[9];
  uint64_t a10 = s[10], a11 = s[11], a12 = s[12], a13 = s[13], a14 = s[14];
  uint64_t a15 = s[15], a16 = s[16], a17 = s[17], a18 = s[18], a19 = s[19];
  uint64_t a20 = s[20], a21 = s[21], a22 = s[22], a23 = s[23], a24 = s[24];
  for (int round = 0; round < 24; round++) {
    /* Theta: column parities c, then d[x] = c[x-1] ^ rotl(c[x+1], 1). */
    uint64_t c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20;
    uint64_t c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21;
    uint64_t c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22;
    uint64_t c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23;
    uint64_t c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24;
    uint64_t d0 = c4 ^ ROTL(c1, 1);
    uint64_t d1 = c0 ^ ROTL(c2, 1);
    uint64_t d2 = c1 ^ ROTL(c3, 1);
    uint64_t d3 = c2 ^ ROTL(c4, 1);
    uint64_t d4 = c3 ^ ROTL(c0, 1);
    /* Rho + Pi: lane (x, y) rotated by its offset lands at (y, 2x + 3y),
       with theta's d[x] folded in on the way. */
    uint64_t b0 = a0 ^ d0;
    uint64_t b1 = ROTL(a6 ^ d1, 44);
    uint64_t b2 = ROTL(a12 ^ d2, 43);
    uint64_t b3 = ROTL(a18 ^ d3, 21);
    uint64_t b4 = ROTL(a24 ^ d4, 14);
    uint64_t b5 = ROTL(a3 ^ d3, 28);
    uint64_t b6 = ROTL(a9 ^ d4, 20);
    uint64_t b7 = ROTL(a10 ^ d0, 3);
    uint64_t b8 = ROTL(a16 ^ d1, 45);
    uint64_t b9 = ROTL(a22 ^ d2, 61);
    uint64_t b10 = ROTL(a1 ^ d1, 1);
    uint64_t b11 = ROTL(a7 ^ d2, 6);
    uint64_t b12 = ROTL(a13 ^ d3, 25);
    uint64_t b13 = ROTL(a19 ^ d4, 8);
    uint64_t b14 = ROTL(a20 ^ d0, 18);
    uint64_t b15 = ROTL(a4 ^ d4, 27);
    uint64_t b16 = ROTL(a5 ^ d0, 36);
    uint64_t b17 = ROTL(a11 ^ d1, 10);
    uint64_t b18 = ROTL(a17 ^ d2, 15);
    uint64_t b19 = ROTL(a23 ^ d3, 56);
    uint64_t b20 = ROTL(a2 ^ d2, 62);
    uint64_t b21 = ROTL(a8 ^ d3, 55);
    uint64_t b22 = ROTL(a14 ^ d4, 39);
    uint64_t b23 = ROTL(a15 ^ d0, 41);
    uint64_t b24 = ROTL(a21 ^ d1, 2);
    /* Chi row by row (a ^ (~b & c)), Iota on lane 0. */
    a0 = b0 ^ (~b1 & b2) ^ round_constants[round];
    a1 = b1 ^ (~b2 & b3);
    a2 = b2 ^ (~b3 & b4);
    a3 = b3 ^ (~b4 & b0);
    a4 = b4 ^ (~b0 & b1);
    a5 = b5 ^ (~b6 & b7);
    a6 = b6 ^ (~b7 & b8);
    a7 = b7 ^ (~b8 & b9);
    a8 = b8 ^ (~b9 & b5);
    a9 = b9 ^ (~b5 & b6);
    a10 = b10 ^ (~b11 & b12);
    a11 = b11 ^ (~b12 & b13);
    a12 = b12 ^ (~b13 & b14);
    a13 = b13 ^ (~b14 & b10);
    a14 = b14 ^ (~b10 & b11);
    a15 = b15 ^ (~b16 & b17);
    a16 = b16 ^ (~b17 & b18);
    a17 = b17 ^ (~b18 & b19);
    a18 = b18 ^ (~b19 & b15);
    a19 = b19 ^ (~b15 & b16);
    a20 = b20 ^ (~b21 & b22);
    a21 = b21 ^ (~b22 & b23);
    a22 = b22 ^ (~b23 & b24);
    a23 = b23 ^ (~b24 & b20);
    a24 = b24 ^ (~b20 & b21);
  }
  s[0] = a0; s[1] = a1; s[2] = a2; s[3] = a3; s[4] = a4;
  s[5] = a5; s[6] = a6; s[7] = a7; s[8] = a8; s[9] = a9;
  s[10] = a10; s[11] = a11; s[12] = a12; s[13] = a13; s[14] = a14;
  s[15] = a15; s[16] = a16; s[17] = a17; s[18] = a18; s[19] = a19;
  s[20] = a20; s[21] = a21; s[22] = a22; s[23] = a23; s[24] = a24;
}

/* [out] must hold at least 32 bytes; the OCaml wrapper guarantees it. */
value khash_keccak256(value msg, value out)
{
  const unsigned char *p = (const unsigned char *)String_val(msg);
  size_t len = caml_string_length(msg);
  uint64_t s[25] = { 0 };
  size_t i;
  /* Absorb every full block a lane at a time, straight from [msg]. */
  while (len >= RATE) {
    for (i = 0; i < RATE / 8; i++) s[i] ^= load_le(p + 8 * i);
    keccak_f(s);
    p += RATE;
    len -= RATE;
  }
  /* The tail (0..135 bytes) goes into the last block: whole lanes, then the
     partial lane byte by byte with the padding 0x01 after it, and 0x80 in
     the last byte of the rate. */
  size_t lanes = len / 8;
  for (i = 0; i < lanes; i++) s[i] ^= load_le(p + 8 * i);
  uint64_t last = 0;
  for (i = 8 * lanes; i < len; i++) last |= (uint64_t)p[i] << (8 * (i % 8));
  last |= (uint64_t)0x01 << (8 * (len % 8));
  s[lanes] ^= last;
  s[RATE / 8 - 1] ^= (uint64_t)0x80 << 56;
  keccak_f(s);
  unsigned char *o = Bytes_val(out);
  for (i = 0; i < 4; i++) store_le(o + 8 * i, s[i]);
  return Val_unit;
}
