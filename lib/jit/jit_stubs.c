/* Native execution stubs for the JIT backend.
 *
 * Three independent concerns live here, all deliberately tiny:
 *
 *  - executable memory with W^X discipline: a code buffer is mmap'd
 *    read-write, the encoded bytes are copied in, and the mapping is
 *    flipped to read-execute before the first call.  The pages are
 *    never writable and executable at the same time.
 *
 *  - a cpuid-based feature probe (AVX/FMA3/FMA4, with the mandatory
 *    OSXSAVE + XCR0 check for AVX state), so the OCaml side can refuse
 *    to jump into code the host cannot decode.
 *
 *  - the System V AMD64 call bridge: generated kernels take up to
 *    eight integer-class arguments (six in registers, two on the
 *    stack) and up to four FP arguments.  Calling through a C function
 *    pointer of exactly that shape lets the C compiler place every
 *    argument where the ABI demands, including the stack slots.  The
 *    bridge allocates nothing on the OCaml heap.
 *
 * A monotonic-clock read (CLOCK_MONOTONIC, nanoseconds) also lives
 * here so wall-clock measurement does not depend on gettimeofday.
 */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/bigarray.h>

#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) || defined(_M_X64)
#define AUGEM_X86_64 1
#endif

#if defined(__unix__) || defined(__APPLE__)
#define AUGEM_UNIX 1
#include <sys/mman.h>
#include <unistd.h>
#include <time.h>
#endif

/* --- cpuid feature probe ------------------------------------------------ */

#ifdef AUGEM_X86_64
static void augem_cpuid(uint32_t leaf, uint32_t sub, uint32_t *a, uint32_t *b,
                        uint32_t *c, uint32_t *d) {
  __asm__ volatile("cpuid"
                   : "=a"(*a), "=b"(*b), "=c"(*c), "=d"(*d)
                   : "a"(leaf), "c"(sub));
}

static uint64_t augem_xgetbv0(void) {
  uint32_t lo, hi;
  __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
  return ((uint64_t)hi << 32) | lo;
}
#endif

/* Bitmask: 1 = SSE2, 2 = AVX, 4 = FMA3, 8 = FMA4.  AVX-family bits are
 * only reported when the OS has enabled XMM+YMM state saving (OSXSAVE
 * and XCR0[2:1] = 11), which is the architectural condition for VEX
 * instructions not to #UD. */
CAMLprim value augem_jit_cpu_features(value unit) {
  long f = 0;
#ifdef AUGEM_X86_64
  uint32_t a, b, c, d;
  augem_cpuid(0, 0, &a, &b, &c, &d);
  if (a >= 1) {
    augem_cpuid(1, 0, &a, &b, &c, &d);
    f |= 1; /* SSE2 is architectural on x86-64 */
    int avx_state = 0;
    if ((c >> 27) & 1) /* OSXSAVE */
      avx_state = (augem_xgetbv0() & 0x6) == 0x6;
    if (avx_state && ((c >> 28) & 1)) f |= 2; /* AVX */
    if (avx_state && ((c >> 12) & 1)) f |= 4; /* FMA3 */
    augem_cpuid(0x80000000u, 0, &a, &b, &c, &d);
    if (a >= 0x80000001u) {
      augem_cpuid(0x80000001u, 0, &a, &b, &c, &d);
      if (avx_state && ((c >> 16) & 1)) f |= 8; /* FMA4 */
    }
  }
#endif
  return Val_long(f);
}

/* --- executable memory (W^X) ------------------------------------------- */

/* Map the code bytes into fresh anonymous pages (RW), copy, flip to
 * R|X.  Returns (addr, mapped_size); the OCaml side owns the mapping
 * and must release it with augem_jit_unmap. */
CAMLprim value augem_jit_map(value vcode) {
  CAMLparam1(vcode);
  CAMLlocal1(pair);
#if defined(AUGEM_UNIX)
  size_t len = caml_string_length(vcode);
  size_t page = (size_t)sysconf(_SC_PAGESIZE);
  size_t sz = ((len + page - 1) / page) * page;
  if (sz == 0) sz = page;
  void *p = mmap(NULL, sz, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) caml_failwith("jit: mmap of code buffer failed");
  memcpy(p, String_val(vcode), len);
  if (mprotect(p, sz, PROT_READ | PROT_EXEC) != 0) {
    munmap(p, sz);
    caml_failwith("jit: mprotect(R|X) failed");
  }
  pair = caml_alloc_tuple(2);
  /* user-space addresses fit in an OCaml int */
  Store_field(pair, 0, Val_long((intnat)p));
  Store_field(pair, 1, Val_long((long)sz));
  CAMLreturn(pair);
#else
  caml_failwith("jit: executable memory is not supported on this platform");
#endif
}

CAMLprim value augem_jit_unmap(value vaddr, value vsize) {
#if defined(AUGEM_UNIX)
  munmap((void *)Long_val(vaddr), (size_t)Long_val(vsize));
#endif
  return Val_unit;
}

/* --- the SysV call bridge ---------------------------------------------- */

typedef void (*augem_kernel_d)(int64_t, int64_t, int64_t, int64_t, int64_t,
                               int64_t, int64_t, int64_t, double, double,
                               double, double);
typedef void (*augem_kernel_f)(int64_t, int64_t, int64_t, int64_t, int64_t,
                               int64_t, int64_t, int64_t, float, float, float,
                               float);

/* Call the kernel at [fn] with eight integer-class and four FP
 * arguments.  The OCaml side declares this [@@noalloc] with untagged
 * integers and unboxed floats, so a call allocates nothing and never
 * stops other domains for a minor collection.  Extra arguments beyond
 * what the kernel's signature binds are harmless under SysV (non-varargs
 * callees ignore surplus registers/stack slots).  When [vfp32] is set,
 * FP arguments are narrowed to C float so an f32 kernel reads its
 * scalar from the low 32 bits of the xmm register, exactly as the ABI
 * passes single precision. */
value augem_jit_call(intnat fn, intnat i0, intnat i1, intnat i2, intnat i3,
                     intnat i4, intnat i5, intnat i6, intnat i7, double d0,
                     double d1, double d2, double d3, value vfp32) {
  if (Bool_val(vfp32))
    ((augem_kernel_f)(void *)fn)(i0, i1, i2, i3, i4, i5, i6, i7, (float)d0,
                                 (float)d1, (float)d2, (float)d3);
  else
    ((augem_kernel_d)(void *)fn)(i0, i1, i2, i3, i4, i5, i6, i7, d0, d1, d2,
                                 d3);
  return Val_unit;
}

CAMLprim value augem_jit_call_byte(value *argv, int argn) {
  (void)argn;
  return augem_jit_call(Long_val(argv[0]), Long_val(argv[1]),
                        Long_val(argv[2]), Long_val(argv[3]),
                        Long_val(argv[4]), Long_val(argv[5]),
                        Long_val(argv[6]), Long_val(argv[7]),
                        Long_val(argv[8]), Double_val(argv[9]),
                        Double_val(argv[10]), Double_val(argv[11]),
                        Double_val(argv[12]), argv[13]);
}

/* Base address of a Bigarray's data, as an int64 the encoder-side ABI
 * layer can do element-offset arithmetic on. */
CAMLprim value augem_jit_ba_addr(value vba) {
  return caml_copy_int64((int64_t)(intptr_t)Caml_ba_data_val(vba));
}

/* --- monotonic clock ---------------------------------------------------- */

CAMLprim value augem_jit_monotonic_ns(value unit) {
#if defined(AUGEM_UNIX)
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000LL +
                         (int64_t)ts.tv_nsec);
#else
  return caml_copy_int64(0LL);
#endif
}
