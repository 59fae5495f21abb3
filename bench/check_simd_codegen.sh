#!/usr/bin/env bash
# Asserts the SpMM tile kernels actually compiled to packed SIMD arithmetic.
#
# 1. fp32 tile micro-kernels.  They (src/linalg/blas.hpp) are built on GNU
#    lane vectors precisely because `#pragma omp simd` silently scalarized:
#    GCC lowered the forced 4-float loops to vfmadd*ss chains plus shuffle
#    traffic, 3-5x slower per call than the fp64 kernel, and nothing failed
#    -- the code was merely slow.  The check disassembles the object that
#    inlines the fp32 SpMM sweep and requires a healthy count of packed ps
#    mul/add/fma instructions (SSE mulps/addps on baseline builds, AVX
#    vmulps/vfmadd*ps with -march=native).
#
# 2. fp64 super-tile kernel.  linalg::gemm_panel_add carries nearly all of
#    the O(N) step's flops; compiled without vector FMA it ran the 216-atom
#    product 2.9x slower, and again nothing failed.  The check disassembles
#    that symbol and requires packed-double arithmetic: mulpd and addpd on
#    baseline SSE2 builds, vfmadd*pd once the kernel is VEX-encoded (AVX;
#    every AVX2 target also has FMA).
#
# A toolchain or flag change that de-vectorizes either kernel fails CI
# instead of shipping a silent 2-3x regression.
#
# Usage:  bench/check_simd_codegen.sh [build-dir]

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
OBJ_DIR="${BUILD_DIR}/CMakeFiles/tbmd.dir/src"
OBJ="${OBJ_DIR}/onx/block_sparse.cpp.o"
BLAS_OBJ="${OBJ_DIR}/linalg/blas.cpp.o"

for f in "${OBJ}" "${BLAS_OBJ}"; do
  if [[ ! -f "${f}" ]]; then
    echo "error: ${f} not found (build the tbmd target first)" >&2
    exit 2
  fi
done

status=0

# --- fp32 micro-kernels --------------------------------------------------
# The block-sparse TU inlines the header kernels into the fp32 numeric
# sweep -- the production call site whose codegen matters.  Packed
# single-precision arithmetic: legacy-SSE or VEX/EVEX mul, add and
# fused-multiply-add forms.  Memory-operand forms disassemble with the same
# mnemonics, so the pattern only keys on those.
PACKED=$(objdump -d "${OBJ}" |
  grep -cE '\b(v?mulps|v?addps|vfmadd(132|213|231)ps)\b' || true)

# A single stray packed op (e.g. a vectorized fill loop) must not pass the
# check; the inlined 4x4/9x9 kernels contribute dozens of packed ops.
MIN=12
echo "packed ps arithmetic instructions in $(basename "${OBJ}"): ${PACKED} (min ${MIN})"
if (( PACKED < MIN )); then
  echo "FAIL: fp32 micro-kernels appear scalarized" >&2
  status=1
else
  echo "ok: fp32 micro-kernels vectorized"
fi

# --- fp64 super-tile kernel ----------------------------------------------
# Only the body of the named symbol counts: up to the blank line that ends
# it in objdump's listing.
# (awk stops early, so the listing is captured first: under pipefail a
# SIGPIPE'd objdump would abort the script.)
DISASM=$(objdump -d -C --no-show-raw-insn "${BLAS_OBJ}")
KERNEL=$(awk '/<tbmd::linalg::gemm_panel_add\(/ {f = 1; next} f && /^$/ {exit} f' \
  <<<"${DISASM}")
if [[ -z "${KERNEL}" ]]; then
  echo "FAIL: tbmd::linalg::gemm_panel_add not found in $(basename "${BLAS_OBJ}")" >&2
  exit 1
fi
count() { grep -cE "$1" <<<"${KERNEL}" || true; }
# Every register block of the kernel contributes packed ops (the SSE2 build
# has 15 mulpd + 15 addpd, an AVX-512 build ~65 vfmadd231pd).
MIN_PD=8
fp64_ok=1
if [[ $(count '\bv[a-z0-9]+[[:space:]]') -gt 0 ]]; then
  FMA=$(count '\bvfmadd(132|213|231)pd\b')
  echo "packed pd FMA instructions in gemm_panel_add: ${FMA} (min ${MIN_PD})"
  if (( FMA < MIN_PD )); then
    echo "FAIL: fp64 panel kernel lacks packed FMA on a VEX build" >&2
    fp64_ok=0
  fi
else
  MUL=$(count '\bmulpd\b')
  ADD=$(count '\baddpd\b')
  echo "packed pd mul/add instructions in gemm_panel_add: ${MUL}/${ADD} (min ${MIN_PD} each)"
  if (( MUL < MIN_PD || ADD < MIN_PD )); then
    echo "FAIL: fp64 panel kernel appears scalarized" >&2
    fp64_ok=0
  fi
fi
if (( fp64_ok )); then
  echo "ok: fp64 panel kernel vectorized"
else
  status=1
fi
exit "${status}"
