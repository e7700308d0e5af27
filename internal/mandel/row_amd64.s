#include "textflag.h"

// escape16 and escape32 iterate z <- z^2 + c for the points
// c = cr[l] + im*i, 16 or 32 of them, in lockstep: four YMM registers of
// four lanes (AVX) or four ZMM registers of eight (AVX-512F), with exactly
// Pixel's IEEE operations in Pixel's order and no FMA. The two share every
// instruction but the escape test's read-out. Registers, with V the kernel's
// Y or Z:
//
//	V0-V3   a
//	V4-V7   b
//	V8-V11  cr
//	V12     im in every lane
//	V13     a*a, then a*a+b*b
//	V14     b*b, then escape16's compare result
//	V15     4.0 in every lane
//	K1-K4   escape32's compare results, read with KMOVW (AVX-512F; the
//	        eight-bit KMOVB would need AVX-512DQ)
//	R8-R11  the escape bits of V0-V3, bit l for the register's lane l
//	CX      the iteration k, BX niter, DX the lanes escaped so far (bit l)
//	R12     the all-escaped mask, one bit per lane
//
// The escape test is VCMPPD less-than with 4.0 on the left, "4 < a*a+b*b",
// which is false for a NaN lane as Go's a2+b2 > 4.0 is: such a lane never
// escapes. A lane escaped at iteration k keeps iterating with the others,
// but only its first escape is recorded; the loop stops once every lane has
// escaped or k reaches niter. Lanes that never escape keep the niter stored
// on entry (0 for niter < 1, where Pixel's loop never runs). VZEROUPPER
// precedes every RET, so the SSE code Go compiles pays no transition cost
// for the dirty upper halves.

// ENTER loads the arguments and clamps niter at 0, writing it back to its
// argument slot, from which each kernel broadcasts it over every k[l]. It
// zeroes the iteration CX and the escaped lanes DX.
#define ENTER \
	MOVQ    cr+0(FP), SI; \
	MOVQ    niter+16(FP), BX; \
	MOVQ    k+24(FP), DI; \
	XORQ    CX, CX; \
	XORQ    DX, DX; \
	TESTQ   BX, BX; \
	CMOVQLT CX, BX; \
	MOVQ    BX, niter+16(FP)

// LOAD broadcasts im into IM and 4.0 into F, loads the four cr vectors at
// W-byte strides, and sets a = cr and b = im.
#define LOAD(W, A0, A1, A2, A3, B0, B1, B2, B3, C0, C1, C2, C3, IM, F) \
	VBROADCASTSD im+8(FP), IM; \
	VBROADCASTSD four<>(SB), F; \
	VMOVUPD (0*W)(SI), C0; \
	VMOVUPD (1*W)(SI), C1; \
	VMOVUPD (2*W)(SI), C2; \
	VMOVUPD (3*W)(SI), C3; \
	VMOVAPD C0, A0; \
	VMOVAPD C1, A1; \
	VMOVAPD C2, A2; \
	VMOVAPD C3, A3; \
	VMOVAPD IM, B0; \
	VMOVAPD IM, B1; \
	VMOVAPD IM, B2; \
	VMOVAPD IM, B3

// STEP runs one iteration on the register (A, B, C) = (a, b, cr), im in
// IM, as Pixel orders it: a2 = a*a, b2 = b*b, b = (2a)*b + im, a = (a2-b2)
// + cr, where a+a is exactly Go's 2*a. It leaves a2+b2 in T; U is scratch.
#define STEP(A, B, C, IM, T, U) \
	VMULPD A, A, T; \
	VMULPD B, B, U; \
	VADDPD A, A, A; \
	VMULPD B, A, B; \
	VADDPD IM, B, B; \
	VSUBPD U, T, A; \
	VADDPD C, A, A; \
	VADDPD U, T, T

// MERGE ends the loop body for both kernels, whose registers hold S lanes
// each: it gathers the escape bits in R8 (R9-R11 shifted left by S, 2S and
// 3S lanes), records each lane's first escape, and returns once every lane
// has escaped or k reaches niter.
#define MERGE(S) \
	SHLQ    $(1*S), R9; \
	SHLQ    $(2*S), R10; \
	SHLQ    $(3*S), R11; \
	ORQ     R9, R8; \
	ORQ     R11, R10; \
	ORQ     R10, R8; \
	ORQ     DX, R8; \
	CMPQ    R8, DX; \
	JNE     escaped; \
next: \
	INCQ    CX; \
	CMPQ    CX, BX; \
	JLT     loop; \
done: \
	VZEROUPPER; \
	RET; \
escaped: \
	MOVQ    R8, R9; \
	XORQ    DX, R9; \
	MOVQ    R8, DX; \
record: \
	BSFQ    R9, R10; \
	MOVQ    CX, (DI)(R10*8); \
	LEAQ    -1(R9), R11; \
	ANDQ    R11, R9; \
	JNZ     record; \
	CMPQ    DX, R12; \
	JNE     next; \
	VZEROUPPER; \
	RET

// func escape16(cr *[16]float64, im float64, niter int, k *[16]int)
TEXT ·escape16(SB), NOSPLIT, $0-32
	ENTER
	VBROADCASTSD niter+16(FP), Y14
	VMOVUPD Y14, 0(DI)
	VMOVUPD Y14, 32(DI)
	VMOVUPD Y14, 64(DI)
	VMOVUPD Y14, 96(DI)
	TESTQ   BX, BX
	JZ      done
	LOAD(32, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y15)
	MOVQ    $0xffff, R12

loop:
	STEP(Y0, Y4, Y8, Y12, Y13, Y14)
	VCMPPD    $1, Y13, Y15, Y14
	VMOVMSKPD Y14, R8
	STEP(Y1, Y5, Y9, Y12, Y13, Y14)
	VCMPPD    $1, Y13, Y15, Y14
	VMOVMSKPD Y14, R9
	STEP(Y2, Y6, Y10, Y12, Y13, Y14)
	VCMPPD    $1, Y13, Y15, Y14
	VMOVMSKPD Y14, R10
	STEP(Y3, Y7, Y11, Y12, Y13, Y14)
	VCMPPD    $1, Y13, Y15, Y14
	VMOVMSKPD Y14, R11
	MERGE(4)

// func escape32(cr *[32]float64, im float64, niter int, k *[32]int)
TEXT ·escape32(SB), NOSPLIT, $0-32
	ENTER
	VBROADCASTSD niter+16(FP), Z14
	VMOVUPD Z14, 0(DI)
	VMOVUPD Z14, 64(DI)
	VMOVUPD Z14, 128(DI)
	VMOVUPD Z14, 192(DI)
	TESTQ   BX, BX
	JZ      done
	LOAD(64, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z15)
	MOVL    $0xffffffff, R12

loop:
	STEP(Z0, Z4, Z8, Z12, Z13, Z14)
	VCMPPD  $1, Z13, Z15, K1
	KMOVW   K1, R8
	STEP(Z1, Z5, Z9, Z12, Z13, Z14)
	VCMPPD  $1, Z13, Z15, K2
	KMOVW   K2, R9
	STEP(Z2, Z6, Z10, Z12, Z13, Z14)
	VCMPPD  $1, Z13, Z15, K3
	KMOVW   K3, R10
	STEP(Z3, Z7, Z11, Z12, Z13, Z14)
	VCMPPD  $1, Z13, Z15, K4
	KMOVW   K4, R11
	MERGE(8)

DATA four<>+0(SB)/8, $4.0
GLOBL four<>(SB), RODATA|NOPTR, $8
