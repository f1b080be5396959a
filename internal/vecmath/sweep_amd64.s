#include "textflag.h"

// The sweep kernels. In the first two, the query-lane kernels, lane l of
// every XMM register belongs to query l of a group of four, whose vectors the
// caller interleaves into q4 (q4[4c+l] = query l's element c). Each entity
// element is broadcast once and meets the four queries' values with
// MULPS/SUBPS/ADDPS, so every (row, query) pair gets the rounded operations
// of the scalar Go loop in the same order: SSE2 only, no FMA, nothing
// re-associated. The one-query kernels that follow put the scalar loop's own
// accumulators in the lanes: matVecRange's even and odd columns of two rows
// per register, L1Distance's four columns of one row. Axpy's body puts four
// elements in the lanes, and so does the last one, BucketKeys'.

// func dotBlocks4x4(dst []float32, stride int, m, q4 []float32)
//
// matVecRange's 4-row blocks for four queries at once: m holds whole 4-row
// blocks of d = len(q4)/4 columns, and dst[l*stride+i] receives row i's dot
// product with query l. Per (row, query) the accumulators are matVecRange's:
// X0-X3 take the even columns of rows 0-3 and X4-X7 the odd ones, a last
// even column when d is odd goes to X0-X3, and the result is even + odd.
TEXT ·dotBlocks4x4(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ stride+24(FP), R8
	SHLQ $2, R8                  // R8: one dst row in bytes
	LEAQ (R8)(R8*2), R13         // R13: three dst rows
	MOVQ m_base+32(FP), SI
	MOVQ m_len+40(FP), R9
	LEAQ (SI)(R9*4), R9          // R9: end of m
	MOVQ q4_base+56(FP), DX
	MOVQ q4_len+64(FP), BX       // BX: one row of m in bytes (4·d)
	LEAQ (BX)(BX*2), R11         // R11: three rows
	MOVQ BX, R10
	SHRQ $3, R10                 // R10: column pairs, d/2
	CMPQ SI, R9
	JAE  done

	PCALIGN $64
block:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  SI, AX
	MOVQ  DX, R12
	MOVQ  R10, CX
	TESTQ CX, CX
	JZ    odd

	PCALIGN $64
pair:
	MOVUPS (R12), X8             // column j of the four queries
	MOVUPS 16(R12), X9           // column j+1
	MOVSS  (AX), X10
	SHUFPS $0x00, X10, X10
	MULPS  X8, X10
	ADDPS  X10, X0
	MOVSS  (AX)(BX*1), X11
	SHUFPS $0x00, X11, X11
	MULPS  X8, X11
	ADDPS  X11, X1
	MOVSS  (AX)(BX*2), X12
	SHUFPS $0x00, X12, X12
	MULPS  X8, X12
	ADDPS  X12, X2
	MOVSS  (AX)(R11*1), X13
	SHUFPS $0x00, X13, X13
	MULPS  X8, X13
	ADDPS  X13, X3
	MOVSS  4(AX), X10
	SHUFPS $0x00, X10, X10
	MULPS  X9, X10
	ADDPS  X10, X4
	MOVSS  4(AX)(BX*1), X11
	SHUFPS $0x00, X11, X11
	MULPS  X9, X11
	ADDPS  X11, X5
	MOVSS  4(AX)(BX*2), X12
	SHUFPS $0x00, X12, X12
	MULPS  X9, X12
	ADDPS  X12, X6
	MOVSS  4(AX)(R11*1), X13
	SHUFPS $0x00, X13, X13
	MULPS  X9, X13
	ADDPS  X13, X7
	ADDQ   $8, AX
	ADDQ   $32, R12
	DECQ   CX
	JNZ    pair

odd:
	TESTQ  $4, BX                // d odd: one more even column
	JZ     sum
	MOVUPS (R12), X8
	MOVSS  (AX), X10
	SHUFPS $0x00, X10, X10
	MULPS  X8, X10
	ADDPS  X10, X0
	MOVSS  (AX)(BX*1), X11
	SHUFPS $0x00, X11, X11
	MULPS  X8, X11
	ADDPS  X11, X1
	MOVSS  (AX)(BX*2), X12
	SHUFPS $0x00, X12, X12
	MULPS  X8, X12
	ADDPS  X12, X2
	MOVSS  (AX)(R11*1), X13
	SHUFPS $0x00, X13, X13
	MULPS  X8, X13
	ADDPS  X13, X3

sum:
	ADDPS X4, X0                 // row k, queries 0-3: even + odd
	ADDPS X5, X1
	ADDPS X6, X2
	ADDPS X7, X3

	// Transpose rows × queries to queries × rows, one 16-byte store per
	// query row of dst.
	MOVAPS   X0, X8
	UNPCKLPS X1, X8              // r0q0 r1q0 r0q1 r1q1
	UNPCKHPS X1, X0              // r0q2 r1q2 r0q3 r1q3
	MOVAPS   X2, X9
	UNPCKLPS X3, X9              // r2q0 r3q0 r2q1 r3q1
	UNPCKHPS X3, X2              // r2q2 r3q2 r2q3 r3q3
	MOVAPS   X8, X10
	MOVLHPS  X9, X10             // query 0, rows 0-3
	MOVHLPS  X8, X9              // query 1
	MOVAPS   X0, X11
	MOVLHPS  X2, X11             // query 2
	MOVHLPS  X0, X2              // query 3
	MOVUPS   X10, (DI)
	MOVUPS   X9, (DI)(R8*1)
	MOVUPS   X11, (DI)(R8*2)
	MOVUPS   X2, (DI)(R13*1)

	ADDQ $16, DI
	LEAQ (SI)(BX*4), SI
	CMPQ SI, R9
	JB   block

done:
	RET

// func l1Rows4(dst []float32, stride int, m, q4 []float32)
//
// The negated L1 distance of every row of m (d = len(q4)/4 columns) to four
// queries: dst[l*stride+i] = −L1Distance(query l, row i). Per (row, query)
// the accumulators are L1Distance's: X0-X3 take columns j ≡ 0-3 (mod 4), the
// d mod 4 tail columns go to X0, |q−e| clears the sign bit (ANDPS), and the
// result is −((s0+s1)+(s2+s3)).
TEXT ·l1Rows4(SB), NOSPLIT, $0-80
	MOVQ    dst_base+0(FP), DI
	MOVQ    stride+24(FP), R8
	SHLQ    $2, R8
	LEAQ    (R8)(R8*2), R13
	MOVQ    m_base+32(FP), SI
	MOVQ    m_len+40(FP), R9
	LEAQ    (SI)(R9*4), R9
	MOVQ    q4_base+56(FP), DX
	MOVQ    q4_len+64(FP), BX    // BX: one row of m in bytes (4·d)
	MOVQ    BX, R10
	SHRQ    $4, R10              // R10: column quads, d/4
	MOVQ    BX, R11
	SHRQ    $2, R11
	ANDQ    $3, R11              // R11: tail columns, d mod 4
	PCMPEQL X14, X14
	PSRLL   $1, X14              // X14: 0x7fffffff, |·|
	PCMPEQL X13, X13
	PSLLL   $31, X13             // X13: 0x80000000, negation
	CMPQ    SI, R9
	JAE     done

	PCALIGN $64
row:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ  SI, AX
	MOVQ  DX, R12
	MOVQ  R10, CX
	TESTQ CX, CX
	JZ    tail

	PCALIGN $64
quad:
	MOVUPS (AX), X8              // row columns j..j+3
	PSHUFL $0x00, X8, X9
	MOVUPS (R12), X4
	SUBPS  X9, X4                // q − e
	ANDPS  X14, X4
	ADDPS  X4, X0
	PSHUFL $0x55, X8, X10
	MOVUPS 16(R12), X5
	SUBPS  X10, X5
	ANDPS  X14, X5
	ADDPS  X5, X1
	PSHUFL $0xAA, X8, X11
	MOVUPS 32(R12), X6
	SUBPS  X11, X6
	ANDPS  X14, X6
	ADDPS  X6, X2
	PSHUFL $0xFF, X8, X12
	MOVUPS 48(R12), X7
	SUBPS  X12, X7
	ANDPS  X14, X7
	ADDPS  X7, X3
	ADDQ   $16, AX
	ADDQ   $64, R12
	DECQ   CX
	JNZ    quad

tail:
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    sum

	PCALIGN $64
tailcol:
	MOVSS  (AX), X9
	SHUFPS $0x00, X9, X9
	MOVUPS (R12), X4
	SUBPS  X9, X4
	ANDPS  X14, X4
	ADDPS  X4, X0
	ADDQ   $4, AX
	ADDQ   $16, R12
	DECQ   CX
	JNZ    tailcol

sum:
	ADDPS  X1, X0                // s0 + s1
	ADDPS  X3, X2                // s2 + s3
	ADDPS  X2, X0
	XORPS  X13, X0
	MOVSS  X0, (DI)
	PSHUFL $0x55, X0, X1
	MOVSS  X1, (DI)(R8*1)
	PSHUFL $0xAA, X0, X2
	MOVSS  X2, (DI)(R8*2)
	PSHUFL $0xFF, X0, X3
	MOVSS  X3, (DI)(R13*1)

	ADDQ $4, DI
	ADDQ BX, SI
	CMPQ SI, R9
	JB   row

done:
	RET

// func dotRows4(dst, m, xp []float32, d int) int
//
// matVecRange's 4-row blocks for one query: m holds len(dst)/4 whole blocks
// of d columns and xp the query's column pairs twice over (see spreadDot).
// Per column pair one register holds rows 0 and 1 and another rows 2 and 3,
// as [e(j) e(j+1) e'(j) e'(j+1)], so the lanes are matVecRange's two
// accumulators per row, even and odd columns; a last even column when d is
// odd meets [x(j) 0 x(j) 0], and the +0 it adds to the odd accumulators,
// which start at +0 and so are never −0, changes no bit. The result is
// even + odd. A block whose sum has a NaN lane stops the kernel, which
// returns the rows scored before it: the Go loop orders some operands per
// row (go1.24 multiplies row 3's even columns as x·e and adds row 0's
// halves odd + even), and with NaNs in both operands that order picks the
// payload, so the caller scores that block with the Go loop. Every other
// result is the same whichever operand comes first.
TEXT ·dotRows4(SB), NOSPLIT, $0-88
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	SHRQ $2, R8                  // R8: blocks
	MOVQ R8, R9                  // R9: blocks left
	MOVQ m_base+24(FP), SI
	MOVQ xp_base+48(FP), DX
	MOVQ d+72(FP), R10
	LEAQ (R10*4), BX             // BX: one row of m in bytes
	LEAQ (BX)(BX*2), R11         // R11: three rows
	MOVQ R10, R13
	ANDQ $1, R13                 // R13: d odd
	SHRQ $1, R10                 // R10: column pairs, d/2
	TESTQ R9, R9
	JZ   done

	PCALIGN $64
block:
	XORPS X0, X0                 // rows 0 and 1: even, odd, even, odd
	XORPS X1, X1                 // rows 2 and 3
	MOVQ  SI, AX
	MOVQ  DX, R12
	MOVQ  R10, CX
	TESTQ CX, CX
	JZ    odd

	PCALIGN $64
pair:
	MOVQ   (AX), X4              // row 0, columns j, j+1
	MOVHPS (AX)(BX*1), X4        // row 1
	MOVQ   (AX)(BX*2), X5        // row 2
	MOVHPS (AX)(R11*1), X5       // row 3
	MOVUPS (R12), X6             // x(j) x(j+1) x(j) x(j+1)
	MULPS  X6, X4
	ADDPS  X4, X0
	MULPS  X6, X5
	ADDPS  X5, X1
	ADDQ   $8, AX
	ADDQ   $16, R12
	DECQ   CX
	JNZ    pair

odd:
	TESTQ   R13, R13
	JZ      sum
	MOVSS   (AX), X4             // the last column, rows 0 and 1
	MOVSS   (AX)(BX*1), X7
	MOVLHPS X7, X4
	MOVSS   (AX)(BX*2), X5       // rows 2 and 3
	MOVSS   (AX)(R11*1), X7
	MOVLHPS X7, X5
	MOVUPS  (R12), X6            // x(j) 0 x(j) 0
	MULPS   X6, X4
	ADDPS   X4, X0
	MULPS   X6, X5
	ADDPS   X5, X1

sum:
	MOVAPS   X0, X2
	SHUFPS   $0x88, X1, X2       // even: rows 0-3
	SHUFPS   $0xDD, X1, X0       // odd
	ADDPS    X0, X2              // even + odd
	MOVUPS   X2, (DI)
	MOVAPS   X2, X3
	CMPPS    X2, X3, $3          // unordered: a NaN lane
	MOVMSKPS X3, CX
	TESTQ    CX, CX
	JNZ      done
	ADDQ     $16, DI
	LEAQ     (SI)(BX*4), SI
	DECQ     R9
	JNZ      block

done:
	SUBQ R9, R8
	SHLQ $2, R8
	MOVQ R8, ret+80(FP)
	RET

// func l1Rows(dst, m, x []float32)
//
// dst[i] = −L1Distance(x, row i of m) for the len(dst) rows of d = len(x)
// columns. L1Distance's four accumulators are columns j ≡ 0-3 (mod 4), so
// one row's fit the lanes of X0 as they stand: x − e four columns at a time,
// the sign bit cleared (ANDPS), the d mod 4 tail columns into lane 0, then
// (s0+s1)+(s2+s3) and the sign flipped, every operand in L1Distance's order.
TEXT ·l1Rows(SB), NOSPLIT, $0-72
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), R9    // R9: rows left
	MOVQ    m_base+24(FP), SI
	MOVQ    x_base+48(FP), DX
	MOVQ    x_len+56(FP), BX
	MOVQ    BX, R10
	SHRQ    $2, R10              // R10: column quads, d/4
	MOVQ    BX, R11
	ANDQ    $3, R11              // R11: tail columns, d mod 4
	SHLQ    $2, BX               // BX: one row in bytes
	PCMPEQL X14, X14
	PSRLL   $1, X14              // X14: 0x7fffffff, |·|
	PCMPEQL X13, X13
	PSLLL   $31, X13             // X13: 0x80000000, negation
	TESTQ   R9, R9
	JZ      done

	PCALIGN $64
row:
	XORPS X0, X0
	MOVQ  SI, AX
	MOVQ  DX, R12
	MOVQ  R10, CX
	TESTQ CX, CX
	JZ    tail

	PCALIGN $64
quad:
	MOVUPS (R12), X4             // x, columns j..j+3
	MOVUPS (AX), X5              // e
	SUBPS  X5, X4                // x − e
	ANDPS  X14, X4
	ADDPS  X4, X0
	ADDQ   $16, AX
	ADDQ   $16, R12
	DECQ   CX
	JNZ    quad

tail:
	MOVQ  R11, CX
	TESTQ CX, CX
	JZ    sum

	PCALIGN $64
tailcol:
	MOVSS (R12), X4
	SUBSS (AX), X4
	ANDPS X14, X4
	ADDSS X4, X0                 // s0
	ADDQ  $4, AX
	ADDQ  $4, R12
	DECQ  CX
	JNZ   tailcol

sum:
	PSHUFL  $0xB1, X0, X1        // s1 s0 s3 s2
	ADDPS   X1, X0               // lane 0: s0 + s1, lane 2: s2 + s3
	MOVHLPS X0, X1
	ADDSS   X1, X0
	XORPS   X13, X0
	MOVSS   X0, (DI)
	ADDQ    $4, DI
	ADDQ    BX, SI
	DECQ    R9
	JNZ     row

done:
	RET

// func axpy(alpha float32, x, y []float32)
//
// y[i] += alpha·x[i] for i < len(x), eight elements per iteration in two
// registers, then a group of four, then one at a time. There is no reduction,
// so each lane performs the Go loop's rounded multiply and add for its
// element, with the Go loop's operands in its order: x[i]·alpha, then the
// product + y[i]. When both operands of an SSE operation are NaN the first
// one's payload survives, so that order is part of the bits.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI
	MOVQ   CX, DX
	SHRQ   $3, DX               // DX: groups of eight
	JZ     four

	PCALIGN $64
eight:
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MULPS  X0, X1               // x·alpha
	MULPS  X0, X2
	MOVUPS (DI), X3
	MOVUPS 16(DI), X4
	ADDPS  X3, X1               // product + y
	ADDPS  X4, X2
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	ADDQ   $32, SI
	ADDQ   $32, DI
	DECQ   DX
	JNZ    eight

four:
	TESTQ  $4, CX
	JZ     tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X3
	ADDPS  X3, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI

tail:
	ANDQ   $3, CX
	JZ     done

	PCALIGN $64
one:
	MOVSS  (SI), X1
	MULSS  X0, X1
	ADDSS  (DI), X1
	MOVSS  X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    one

done:
	RET

// func bucketKeys(keys []uint16, x []float32, v0, scale, top float32)
//
// keys[i] = bucketKeysGo's key of x[i] for i < len(x), eight per iteration
// in two registers, then a group of four, then one at a time: t = (x − v0)·
// scale, MAXPS with −1 as the source operand, which is what MAXPS returns
// when t is NaN, MINPS with top, CVTTPS2DQ, +1, and PACKSSDW to 16 bits.
// The clamp runs before the conversion, so no lane is ever out of int32
// range, and top ≤ 2¹⁵ − 2 keeps every key inside the pack's signed 16 bits.
TEXT ·bucketKeys(SB), NOSPLIT, $0-60
	MOVQ      keys_base+0(FP), DI
	MOVQ      x_base+24(FP), SI
	MOVQ      x_len+32(FP), CX
	MOVSS     v0+48(FP), X8
	SHUFPS    $0x00, X8, X8
	MOVSS     scale+52(FP), X9
	SHUFPS    $0x00, X9, X9
	MOVSS     top+56(FP), X10
	SHUFPS    $0x00, X10, X10
	PCMPEQL   X11, X11
	CVTPL2PS  X11, X11          // X11: −1
	PCMPEQL   X12, X12
	PSRLL     $31, X12          // X12: int32 1
	MOVQ      CX, DX
	SHRQ      $3, DX            // DX: groups of eight
	JZ        four

	PCALIGN $64
eight:
	MOVUPS    (SI), X0
	MOVUPS    16(SI), X1
	SUBPS     X8, X0            // x − v0
	SUBPS     X8, X1
	MULPS     X9, X0            // ·scale
	MULPS     X9, X1
	MAXPS     X11, X0           // max(t, −1), NaN → −1
	MAXPS     X11, X1
	MINPS     X10, X0           // min(·, top)
	MINPS     X10, X1
	CVTTPS2PL X0, X0
	CVTTPS2PL X1, X1
	PADDL     X12, X0
	PADDL     X12, X1
	PACKSSLW  X1, X0            // keys 0-3 from X0, 4-7 from X1
	MOVOU     X0, (DI)
	ADDQ      $32, SI
	ADDQ      $16, DI
	DECQ      DX
	JNZ       eight

four:
	TESTQ     $4, CX
	JZ        tail
	MOVUPS    (SI), X0
	SUBPS     X8, X0
	MULPS     X9, X0
	MAXPS     X11, X0
	MINPS     X10, X0
	CVTTPS2PL X0, X0
	PADDL     X12, X0
	PACKSSLW  X0, X0
	MOVQ      X0, (DI)
	ADDQ      $16, SI
	ADDQ      $8, DI

tail:
	ANDQ      $3, CX
	JZ        done

	PCALIGN $64
one:
	MOVSS     (SI), X0
	SUBSS     X8, X0
	MULSS     X9, X0
	MAXSS     X11, X0
	MINSS     X10, X0
	CVTTSS2SL X0, AX
	INCL      AX
	MOVW      AX, (DI)
	ADDQ      $4, SI
	ADDQ      $2, DI
	DECQ      CX
	JNZ       one

done:
	RET
