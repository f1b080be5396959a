#include "textflag.h"

// The training kernels: the four-row Dot under DotRows and QueryDots,
// Adam's row update, one filter of ConvE's 3×3 convolution, and the KvsAll
// backward pass's per-entity step. SSE2 only, no FMA, each lane doing the
// rounded operations of the Go loop it replaces in that loop's order.

// func dot4(dst *[4]float32, rows *[4][]float32, x []float32)
//
// Dot for four rows against one x: X0-X3 are the rows' accumulators, lane
// l holding Dot's s_l (columns j ≡ l mod 4), the len(x) mod 4 tail columns
// go to lane 0, and a transpose to accumulators × rows gives every row's
// (s0+s1)+(s2+s3) in one register.
TEXT ·dot4(SB), NOSPLIT, $0-40
	MOVQ  dst+0(FP), DI
	MOVQ  rows+8(FP), R8
	MOVQ  x_base+16(FP), SI
	MOVQ  x_len+24(FP), CX
	MOVQ  0(R8), R9              // rows[0]
	MOVQ  24(R8), R10            // rows[1]
	MOVQ  48(R8), R11            // rows[2]
	MOVQ  72(R8), R12            // rows[3]
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX                 // AX: byte offset of column j
	MOVQ  CX, DX
	SHRQ  $2, DX                 // DX: column quads
	JZ    tail

	PCALIGN $64
quad:
	MOVUPS (SI)(AX*1), X4        // x, columns j..j+3
	MOVUPS (R9)(AX*1), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R10)(AX*1), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R11)(AX*1), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R12)(AX*1), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $16, AX
	DECQ   DX
	JNZ    quad

tail:
	ANDQ $3, CX
	JZ   sum

	PCALIGN $64
one:
	MOVSS (SI)(AX*1), X4
	MOVSS (R9)(AX*1), X5
	MULSS X4, X5
	ADDSS X5, X0                 // s0
	MOVSS (R10)(AX*1), X6
	MULSS X4, X6
	ADDSS X6, X1
	MOVSS (R11)(AX*1), X7
	MULSS X4, X7
	ADDSS X7, X2
	MOVSS (R12)(AX*1), X8
	MULSS X4, X8
	ADDSS X8, X3
	ADDQ  $4, AX
	DECQ  CX
	JNZ   one

sum:
	MOVAPS   X0, X4
	UNPCKLPS X1, X4              // r0s0 r1s0 r0s1 r1s1
	UNPCKHPS X1, X0              // r0s2 r1s2 r0s3 r1s3
	MOVAPS   X2, X5
	UNPCKLPS X3, X5              // r2s0 r3s0 r2s1 r3s1
	UNPCKHPS X3, X2              // r2s2 r3s2 r2s3 r3s3
	MOVAPS   X4, X6
	MOVLHPS  X5, X6              // s0 of rows 0-3
	MOVHLPS  X4, X5              // s1
	MOVAPS   X0, X7
	MOVLHPS  X2, X7              // s2
	MOVHLPS  X0, X2              // s3
	ADDPS    X5, X6              // s0 + s1
	ADDPS    X2, X7              // s2 + s3
	ADDPS    X7, X6
	MOVUPS   X6, (DI)
	RET

// func adamRow(w, m, v, g []float32, k *[8]float32) int
//
// AdamRow's expression four elements at a time, k's eight scalars
// broadcast to X8-X15: m' = β₁·m + (1−β₁)·g, v' = β₂·v + ((1−β₂)·g)·g,
// w' = w − (lr·(m'/C1)) / (√(v'/C2) + ε), √ by SQRTPS, which rounds as
// float32(math.Sqrt(float64(·))) does. A block is stored only when none of
// m', v', w' has a NaN lane; otherwise the kernel returns the elements
// stored so far and the caller runs that block in Go.
TEXT ·adamRow(SB), NOSPLIT, $0-112
	MOVQ   w_base+0(FP), DI
	MOVQ   m_base+24(FP), R9
	MOVQ   v_base+48(FP), R10
	MOVQ   g_base+72(FP), SI
	MOVQ   g_len+80(FP), CX
	SHRQ   $2, CX                // CX: blocks
	MOVQ   CX, R8                // R8: blocks left
	MOVQ   k+96(FP), AX
	MOVSS  0(AX), X8
	SHUFPS $0x00, X8, X8         // β₁
	MOVSS  4(AX), X9
	SHUFPS $0x00, X9, X9         // 1 − β₁
	MOVSS  8(AX), X10
	SHUFPS $0x00, X10, X10       // β₂
	MOVSS  12(AX), X11
	SHUFPS $0x00, X11, X11       // 1 − β₂
	MOVSS  16(AX), X12
	SHUFPS $0x00, X12, X12       // C1
	MOVSS  20(AX), X13
	SHUFPS $0x00, X13, X13       // C2
	MOVSS  24(AX), X14
	SHUFPS $0x00, X14, X14       // lr
	MOVSS  28(AX), X15
	SHUFPS $0x00, X15, X15       // ε
	XORQ   BX, BX                // BX: byte offset
	TESTQ  R8, R8
	JZ     done

	PCALIGN $64
block:
	MOVUPS   (SI)(BX*1), X0      // g
	MOVUPS   (R9)(BX*1), X1
	MULPS    X8, X1              // β₁·m
	MOVAPS   X0, X2
	MULPS    X9, X2              // (1−β₁)·g
	ADDPS    X2, X1              // m'
	MOVUPS   (R10)(BX*1), X3
	MULPS    X10, X3             // β₂·v
	MOVAPS   X0, X4
	MULPS    X11, X4
	MULPS    X0, X4              // (1−β₂)·g·g
	ADDPS    X4, X3              // v'
	MOVAPS   X1, X5
	DIVPS    X12, X5             // m'/C1
	MULPS    X14, X5             // lr·(m'/C1)
	MOVAPS   X3, X6
	DIVPS    X13, X6             // v'/C2
	SQRTPS   X6, X6
	ADDPS    X15, X6             // √(v'/C2) + ε
	DIVPS    X6, X5
	MOVUPS   (DI)(BX*1), X7
	SUBPS    X5, X7              // w'
	MOVAPS   X1, X2
	CMPPS    X3, X2, $3          // m' or v' unordered
	MOVAPS   X7, X4
	CMPPS    X7, X4, $3          // w' NaN
	ORPS     X4, X2
	MOVMSKPS X2, DX
	TESTQ    DX, DX
	JNZ      done
	MOVUPS   X1, (R9)(BX*1)
	MOVUPS   X3, (R10)(BX*1)
	MOVUPS   X7, (DI)(BX*1)
	ADDQ     $16, BX
	DECQ     R8
	JNZ      block

done:
	SUBQ R8, CX
	SHLQ $2, CX
	MOVQ CX, ret+104(FP)
	RET

// func conv3x3(z, x, in []float32, iw int, k []float32, b float32) int
//
// One filter: the nine taps broadcast to X0-X8 and the bias to X9; output
// row i, columns j..j+3, starts at the bias and adds k(u,v)·in(i+u, j+v)
// in (u, v) order. Columns advance four at a time, and the last block of a
// row starts at ow − 4, overlapping the one before when 4 does not divide
// ow (its overlapping columns get the same bits twice). z takes the sum, x
// the sum under the mask 0 < sum, which is +0 for −0 and NaN as the Go
// loop's `if acc > 0` leaves it. X14 collects unordered lanes; the kernel
// returns their mask.
TEXT ·conv3x3(SB), NOSPLIT, $0-120
	MOVQ   z_base+0(FP), DI
	MOVQ   z_len+8(FP), R9
	LEAQ   (DI)(R9*4), R9        // R9: end of z
	MOVQ   x_base+24(FP), R10
	SUBQ   DI, R10               // R10: x − z in bytes
	MOVQ   in_base+48(FP), SI
	MOVQ   iw+72(FP), BX
	LEAQ   -2(BX), R11           // R11: ow
	LEAQ   -4(R11), R12          // R12: the last block's column, ow − 4
	SHLQ   $2, BX                // BX: one input row in bytes
	MOVQ   k_base+80(FP), AX
	MOVSS  0(AX), X0
	SHUFPS $0x00, X0, X0
	MOVSS  4(AX), X1
	SHUFPS $0x00, X1, X1
	MOVSS  8(AX), X2
	SHUFPS $0x00, X2, X2
	MOVSS  12(AX), X3
	SHUFPS $0x00, X3, X3
	MOVSS  16(AX), X4
	SHUFPS $0x00, X4, X4
	MOVSS  20(AX), X5
	SHUFPS $0x00, X5, X5
	MOVSS  24(AX), X6
	SHUFPS $0x00, X6, X6
	MOVSS  28(AX), X7
	SHUFPS $0x00, X7, X7
	MOVSS  32(AX), X8
	SHUFPS $0x00, X8, X8
	MOVSS  b+104(FP), X9
	SHUFPS $0x00, X9, X9
	XORPS  X12, X12              // +0
	XORPS  X14, X14
	CMPQ   DI, R9
	JAE    done

	PCALIGN $64
row:
	XORQ CX, CX                  // CX: column j

	PCALIGN $64
col:
	CMPQ CX, R12
	JLE  block
	MOVQ R12, CX

block:
	LEAQ   (SI)(CX*4), AX        // in(i, j)
	LEAQ   (DI)(CX*4), DX        // z(i, j)
	MOVAPS X9, X10
	MOVUPS (AX), X11
	MULPS  X0, X11
	ADDPS  X11, X10
	MOVUPS 4(AX), X11
	MULPS  X1, X11
	ADDPS  X11, X10
	MOVUPS 8(AX), X11
	MULPS  X2, X11
	ADDPS  X11, X10
	MOVUPS (AX)(BX*1), X11
	MULPS  X3, X11
	ADDPS  X11, X10
	MOVUPS 4(AX)(BX*1), X11
	MULPS  X4, X11
	ADDPS  X11, X10
	MOVUPS 8(AX)(BX*1), X11
	MULPS  X5, X11
	ADDPS  X11, X10
	MOVUPS (AX)(BX*2), X11
	MULPS  X6, X11
	ADDPS  X11, X10
	MOVUPS 4(AX)(BX*2), X11
	MULPS  X7, X11
	ADDPS  X11, X10
	MOVUPS 8(AX)(BX*2), X11
	MULPS  X8, X11
	ADDPS  X11, X10
	MOVUPS X10, (DX)
	MOVAPS X10, X11
	CMPPS  X11, X11, $3          // NaN lanes
	ORPS   X11, X14
	MOVAPS X12, X13
	CMPPS  X10, X13, $1          // 0 < sum
	ANDPS  X10, X13
	MOVUPS X13, (DX)(R10*1)
	CMPQ   CX, R12
	JGE    next
	ADDQ   $4, CX
	JMP    col

next:
	ADDQ BX, SI
	LEAQ (DI)(R11*4), DI
	CMPQ DI, R9
	JB   row

done:
	MOVMSKPS X14, AX
	MOVQ     AX, ret+112(FP)
	RET

// func axpyGather(y, g []float32, js []int, q []float32, d int)
//
// For each 16-column block of y (X0-X3), every context k in order: g[k]
// broadcast to X8 and y += q·g on row js[k] of q, with Axpy's operands in
// Axpy's order — x·alpha, then the product + y — so that every element's
// bits, NaN payloads included, are the Axpys'. y's block is stored once,
// after the last context.
TEXT ·axpyGather(SB), NOSPLIT, $0-104
	MOVQ  y_base+0(FP), DI
	MOVQ  y_len+8(FP), R8
	SHRQ  $4, R8                 // R8: 16-column blocks
	JZ    done
	MOVQ  g_base+24(FP), R9
	MOVQ  js_base+48(FP), R10
	MOVQ  js_len+56(FP), R11     // R11: contexts
	TESTQ R11, R11
	JZ    done
	MOVQ  q_base+72(FP), R12
	MOVQ  d+96(FP), R14
	SHLQ  $2, R14                // R14: one q row in bytes
	XORQ  DX, DX                 // DX: the block's byte offset in a row

	PCALIGN $64
block:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	XORQ   CX, CX                // CX: context k

	PCALIGN $64
ctx:
	MOVSS  (R9)(CX*4), X8
	SHUFPS $0x00, X8, X8         // g[k]
	MOVQ   (R10)(CX*8), AX
	IMULQ  R14, AX
	ADDQ   DX, AX                // AX: row js[k], this block
	MOVUPS (R12)(AX*1), X9
	MULPS  X8, X9                // q·g
	ADDPS  X0, X9                // + y
	MOVAPS X9, X0
	MOVUPS 16(R12)(AX*1), X10
	MULPS  X8, X10
	ADDPS  X1, X10
	MOVAPS X10, X1
	MOVUPS 32(R12)(AX*1), X11
	MULPS  X8, X11
	ADDPS  X2, X11
	MOVAPS X11, X2
	MOVUPS 48(R12)(AX*1), X12
	MULPS  X8, X12
	ADDPS  X3, X12
	MOVAPS X12, X3
	INCQ   CX
	CMPQ   CX, R11
	JB     ctx

	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, DX
	DECQ   R8
	JNZ    block

done:
	RET

// func axpyScatter(dq, g []float32, js []int, e []float32, d int)
//
// For each 16-column block of e (X4-X7), every context k in order: g[k]
// broadcast to X8 and dq += e·g on row js[k] of dq, with Axpy's operands
// in Axpy's order — x·alpha, then the product + y.
TEXT ·axpyScatter(SB), NOSPLIT, $0-104
	MOVQ  e_base+72(FP), SI
	MOVQ  e_len+80(FP), R8
	SHRQ  $4, R8                 // R8: 16-column blocks
	JZ    done
	MOVQ  g_base+24(FP), R9
	MOVQ  js_base+48(FP), R10
	MOVQ  js_len+56(FP), R11     // R11: contexts
	TESTQ R11, R11
	JZ    done
	MOVQ  dq_base+0(FP), R13
	MOVQ  d+96(FP), R14
	SHLQ  $2, R14                // R14: one dq row in bytes
	XORQ  DX, DX                 // DX: the block's byte offset in a row

	PCALIGN $64
block:
	MOVUPS (SI), X4
	MOVUPS 16(SI), X5
	MOVUPS 32(SI), X6
	MOVUPS 48(SI), X7
	XORQ   CX, CX                // CX: context k

	PCALIGN $64
ctx:
	MOVSS  (R9)(CX*4), X8
	SHUFPS $0x00, X8, X8         // g[k]
	MOVQ   (R10)(CX*8), AX
	IMULQ  R14, AX
	ADDQ   DX, AX                // AX: row js[k], this block
	MOVAPS X4, X9
	MULPS  X8, X9                // e·g
	MOVUPS (R13)(AX*1), X13
	ADDPS  X13, X9               // + dq
	MOVUPS X9, (R13)(AX*1)
	MOVAPS X5, X10
	MULPS  X8, X10
	MOVUPS 16(R13)(AX*1), X13
	ADDPS  X13, X10
	MOVUPS X10, 16(R13)(AX*1)
	MOVAPS X6, X11
	MULPS  X8, X11
	MOVUPS 32(R13)(AX*1), X13
	ADDPS  X13, X11
	MOVUPS X11, 32(R13)(AX*1)
	MOVAPS X7, X12
	MULPS  X8, X12
	MOVUPS 48(R13)(AX*1), X13
	ADDPS  X13, X12
	MOVUPS X12, 48(R13)(AX*1)
	INCQ   CX
	CMPQ   CX, R11
	JB     ctx

	ADDQ   $64, SI
	ADDQ   $64, DX
	DECQ   R8
	JNZ    block

done:
	RET

// func sumInto(dst *float32, xs []float32)
//
// *dst += x for each x of xs in order, the sum as ADDSS's destination, so
// it is the first operand whichever build calls it.
TEXT ·sumInto(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  xs_base+8(FP), SI
	MOVQ  xs_len+16(FP), CX
	MOVSS (DI), X0
	TESTQ CX, CX
	JZ    done

	PCALIGN $64
next:
	ADDSS (SI), X0
	ADDQ  $4, SI
	DECQ  CX
	JNZ   next

done:
	MOVSS X0, (DI)
	RET
