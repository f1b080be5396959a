#include "textflag.h"

// func dotI8x16(a, b []int8) int32
//
// Sixteen products per iteration: each operand's bytes are widened to int16
// by unpacking a register with itself (byte b becomes the word b<<8|b) and
// shifting right arithmetically by 8, PMADDWD multiplies the words and adds
// neighbouring pairs into int32 lanes (at most 2·128² per lane, no
// saturation case is reachable from int8 inputs), and two accumulators keep
// the adds off one dependency chain.
TEXT ·dotI8x16(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	PXOR X0, X0
	PXOR X5, X5
	SHRQ $4, CX
	JZ   sum

loop:
	MOVOU     (SI), X1
	MOVOU     (DI), X2
	MOVO      X1, X3
	MOVO      X2, X4
	PUNPCKLBW X1, X1
	PUNPCKHBW X3, X3
	PUNPCKLBW X2, X2
	PUNPCKHBW X4, X4
	PSRAW     $8, X1
	PSRAW     $8, X3
	PSRAW     $8, X2
	PSRAW     $8, X4
	PMADDWL   X2, X1
	PMADDWL   X4, X3
	PADDL     X1, X0
	PADDL     X3, X5
	ADDQ      $16, SI
	ADDQ      $16, DI
	DECQ      CX
	JNZ       loop

sum:
	// Fold the eight int32 lanes into one.
	PADDL  X5, X0
	PSHUFD $0x4E, X0, X1
	PADDL  X1, X0
	PSHUFD $0xB1, X0, X1
	PADDL  X1, X0
	MOVQ   X0, AX
	MOVL   AX, ret+48(FP)
	RET
