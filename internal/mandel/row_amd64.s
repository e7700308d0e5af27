#include "textflag.h"

// escape8 iterates z <- z^2 + c for the eight points c = cr[l] + im*i in
// lockstep, two lanes per XMM register, with exactly Pixel's IEEE
// operations in Pixel's order and no FMA. Registers:
//
//	X0-X3   a (lanes 0-1, 2-3, 4-5, 6-7)
//	X4-X7   b
//	X8-X11  cr
//	X12     im in both lanes
//	X13-X15 a*a and a*a+b*b, b*b, the escape mask
//	CX      the iteration k, BX niter, DX the lanes escaped so far (bit l)
//
// The escape test is CMPPD less-than with 4.0 on the left, "4 < a*a+b*b",
// which is false for a NaN lane as Go's a2+b2 > 4.0 is: such a lane never
// escapes. A lane escaped at iteration k keeps iterating with the others,
// but only its first escape is recorded; the loop stops once all eight have
// escaped or k reaches niter. Lanes that never escape keep the niter stored
// on entry (0 for niter < 1, where Pixel's loop never runs).

// STEP runs one iteration on the lane pair (A, B, C) = (a, b, cr) and sets
// M to its escape bits.
#define STEP(A, B, C, M) \
	MOVAPD   A, X13; \
	MULPD    A, X13; \
	MOVAPD   B, X14; \
	MULPD    B, X14; \
	ADDPD    A, A; \
	MULPD    A, B; \
	ADDPD    X12, B; \
	MOVAPD   X13, A; \
	SUBPD    X14, A; \
	ADDPD    C, A; \
	ADDPD    X14, X13; \
	MOVUPD   four<>(SB), X15; \
	CMPPD    X13, X15, $1; \
	MOVMSKPD X15, M

// func escape8(cr *[8]float64, im float64, niter int, k *[8]int)
TEXT ·escape8(SB), NOSPLIT, $0-32
	MOVQ     cr+0(FP), SI
	MOVSD    im+8(FP), X12
	MOVQ     niter+16(FP), BX
	MOVQ     k+24(FP), DI

	XORQ     CX, CX
	TESTQ    BX, BX
	CMOVQLT  CX, BX
	MOVQ     BX, 0(DI)
	MOVQ     BX, 8(DI)
	MOVQ     BX, 16(DI)
	MOVQ     BX, 24(DI)
	MOVQ     BX, 32(DI)
	MOVQ     BX, 40(DI)
	MOVQ     BX, 48(DI)
	MOVQ     BX, 56(DI)
	TESTQ    BX, BX
	JZ       done

	UNPCKLPD X12, X12
	MOVUPD   0(SI), X8
	MOVUPD   16(SI), X9
	MOVUPD   32(SI), X10
	MOVUPD   48(SI), X11
	MOVAPD   X8, X0
	MOVAPD   X9, X1
	MOVAPD   X10, X2
	MOVAPD   X11, X3
	MOVAPD   X12, X4
	MOVAPD   X12, X5
	MOVAPD   X12, X6
	MOVAPD   X12, X7
	XORQ     DX, DX

loop:
	STEP(X0, X4, X8, R8)
	STEP(X1, X5, X9, R9)
	STEP(X2, X6, X10, R10)
	STEP(X3, X7, X11, R11)
	SHLQ     $2, R9
	SHLQ     $4, R10
	SHLQ     $6, R11
	ORQ      R9, R8
	ORQ      R11, R10
	ORQ      R10, R8
	ORQ      DX, R8
	CMPQ     R8, DX
	JNE      escaped

next:
	INCQ     CX
	CMPQ     CX, BX
	JLT      loop

done:
	RET

	// R9 = the lanes that escaped at iteration k for the first time.
escaped:
	MOVQ     R8, R9
	XORQ     DX, R9
	MOVQ     R8, DX

record:
	BSFQ     R9, R10
	MOVQ     CX, (DI)(R10*8)
	LEAQ     -1(R9), R11
	ANDQ     R11, R9
	JNZ      record
	CMPQ     DX, $0xff
	JNE      next
	RET

DATA four<>+0(SB)/8, $4.0
DATA four<>+8(SB)/8, $4.0
GLOBL four<>(SB), RODATA|NOPTR, $16
