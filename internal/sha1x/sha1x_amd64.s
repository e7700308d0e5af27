#include "textflag.h"

// blockSHANI compresses len(p)/64 blocks of p into h with the SHA
// extensions, following the schedule of Intel's "Intel SHA Extensions"
// paper (Gulley et al., 2013). Registers:
//
//	X0     a, b, c, d (a in the top lane)
//	X1, X2 e, ping-ponged: SHA1NEXTE turns the a saved four rounds back
//	       into the e of the next four
//	X3-X6  the message schedule, four words W[4g..4g+3] per register
//	X7     the byte-reversal mask (SHA-1 words are big-endian)
//	X8, X9 e and a..d at block entry, added back at block end
//
// Rounds 0-15 load W[0..15]. From then on, the group of rounds 4g..4g+3
// (g = 4..19) with W[4g..] in M = X3+(g mod 4) runs one four-step rotation:
//
//	SHA1NEXTE M, e; SHA1MSG2 M, M+1; SHA1RNDS4 $(g/5), e, X0;
//	SHA1MSG1 M, M+3; PXOR M, M+2        (register numbers mod 4)
//
// SHA1MSG2 finishes W[4g+4..] (the W[i-3] term), SHA1MSG1 starts W[4g+12..]
// (W[i-16] ^ W[i-14]) and PXOR adds W[i-8] to W[4g+8..]. Each step is left
// out once the word it feeds lies past W[79]: SHA1MSG1 after rounds 64-67,
// PXOR after 68-71, SHA1MSG2 after 72-75. The round function and constant
// change every 20 rounds, the SHA1RNDS4 immediate 0..3.
//
// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ      h+0(FP), DI
	MOVQ      p_base+8(FP), SI
	MOVQ      p_len+16(FP), DX
	ANDQ      $-64, DX
	JZ        done
	ADDQ      SI, DX

	MOVOU     (DI), X0
	PSHUFD    $0x1b, X0, X0
	PXOR      X1, X1
	PINSRD    $3, 16(DI), X1
	MOVOU     flipMask<>(SB), X7

loop:
	MOVO      X1, X8
	MOVO      X0, X9

	// Rounds 0-3
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-19
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 20-23
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 24-27
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 28-31
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 32-35
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 36-39
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 40-43
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 44-47
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 48-51
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 52-55
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 56-59
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 60-63
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $3, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 64-67
	SHA1NEXTE X3, X1
	MOVO      X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 68-71
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	SHA1NEXTE X8, X1
	PADDD     X9, X0

	ADDQ      $64, SI
	CMPQ      SI, DX
	JNE       loop

	PSHUFD    $0x1b, X0, X0
	MOVOU     X0, (DI)
	PEXTRD    $3, X1, 16(DI)

done:
	RET

// flipMask reverses all 16 bytes of a load (PSHUFB): each big-endian word
// comes out in host order, and the first word of the four in the top lane,
// where SHA1RNDS4 takes it.
DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// lanes16 compresses n >= 1 64-byte blocks in each of 16 lanes into st,
// lane l's state in st[0][l]..st[4][l] and its blocks at data[off[l]:], the
// 32-bit lanes of a ZMM register holding one message each. It leaves each
// off[l] advanced by 64n. Registers:
//
//	Z0-Z4  a, b, c, d, e; a round leaves its new a in the register that held
//	       e, so the five names return to Z0-Z4 after every five rounds
//	Z5, Z6 rol5(a) and f(b, c, d)
//	Z7     the round constant K in every lane
//	Z8     the byte-reversal mask of each 32-bit word (VPSHUFB)
//	Z9     each lane's byte offset from &data[0], the gather indices
//	Z10    4 in every lane, the gather stride
//	Z11    a gathered message word, then the schedule word under way
//	Z12    W[t-14]
//	K1     the gather mask, all 16 lanes (VPGATHERDD clears it)
//	R9     W[0..79], 64 bytes a word, on the frame at a 64-byte boundary
//	R8     the schedule word or round at hand; BX counts loop iterations
//	DI, SI st and &data[0]; DX off; CX the blocks left to run
//
// Per block, the sixteen VPGATHERDDs load W[0..15] and the schedule loop
// extends them to W[t] = rol1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]). Each
// round then is e += rol5(a) + f(b, c, d) + W[t] + K; b = rol30(b), with f
// one VPTERNLOGD: Ch = b ? c : d (0xCA) for rounds 0-19, Parity b^c^d (0x96)
// for 20-39 and 60-79, Maj (0xE8) for 40-59.
//
// func lanes16(st *[5][16]uint32, data []byte, off *[16]uint32, n int)

// ROUND is one round on the registers (A, B, C, D, E) = (a, b, c, d, e)
// with the round function F and W[t] at W.
#define ROUND(F, A, B, C, D, E, W) \
	VPADDD     W, E, E; \
	VPADDD     Z7, E, E; \
	VPROLD     $5, A, Z5; \
	VPADDD     Z5, E, E; \
	VMOVDQA32  B, Z6; \
	VPTERNLOGD $F, D, C, Z6; \
	VPADDD     Z6, E, E; \
	VPROLD     $30, B, B

// ROUND5 runs the five rounds whose W[t] start at R8 and advances R8 past
// them.
#define ROUND5(F) \
	ROUND(F, Z0, Z1, Z2, Z3, Z4, 0(R8)); \
	ROUND(F, Z4, Z0, Z1, Z2, Z3, 64(R8)); \
	ROUND(F, Z3, Z4, Z0, Z1, Z2, 128(R8)); \
	ROUND(F, Z2, Z3, Z4, Z0, Z1, 192(R8)); \
	ROUND(F, Z1, Z2, Z3, Z4, Z0, 256(R8)); \
	ADDQ       $320, R8

// ROUNDS20 loads the constant K for twenty rounds and sets BX to count their
// four ROUND5s.
#define ROUNDS20(K) \
	MOVL         $K, AX; \
	VPBROADCASTD AX, Z7; \
	MOVQ         $4, BX

TEXT ·lanes16(SB), 0, $5184-48
	MOVQ         st+0(FP), DI
	MOVQ         data_base+8(FP), SI
	MOVQ         off+32(FP), DX
	MOVQ         n+40(FP), CX
	LEAQ         63(SP), R9
	ANDQ         $-64, R9
	VMOVDQU32    (DX), Z9
	VBROADCASTI32X4 flipWords<>(SB), Z8
	MOVL         $4, AX
	VPBROADCASTD AX, Z10
	VMOVDQU32    0(DI), Z0
	VMOVDQU32    64(DI), Z1
	VMOVDQU32    128(DI), Z2
	VMOVDQU32    192(DI), Z3
	VMOVDQU32    256(DI), Z4

block:
	MOVQ         R9, R8
	MOVQ         $16, BX

load:
	KXNORW       K1, K1, K1
	VPGATHERDD   (SI)(Z9*1), K1, Z11
	VPSHUFB      Z8, Z11, Z11
	VMOVDQU32    Z11, (R8)
	VPADDD       Z10, Z9, Z9
	ADDQ         $64, R8
	DECQ         BX
	JNZ          load

	MOVQ         $64, BX

schedule:
	VMOVDQU32    -1024(R8), Z11
	VMOVDQU32    -896(R8), Z12
	VPTERNLOGD   $0x96, -192(R8), Z12, Z11
	VPXORD       -512(R8), Z11, Z11
	VPROLD       $1, Z11, Z11
	VMOVDQU32    Z11, (R8)
	ADDQ         $64, R8
	DECQ         BX
	JNZ          schedule

	MOVQ         R9, R8
	ROUNDS20(0x5A827999)

ch:
	ROUND5(0xCA)
	DECQ         BX
	JNZ          ch
	ROUNDS20(0x6ED9EBA1)

parity1:
	ROUND5(0x96)
	DECQ         BX
	JNZ          parity1
	ROUNDS20(0x8F1BBCDC)

maj:
	ROUND5(0xE8)
	DECQ         BX
	JNZ          maj
	ROUNDS20(0xCA62C1D6)

parity2:
	ROUND5(0x96)
	DECQ         BX
	JNZ          parity2

	VPADDD       0(DI), Z0, Z0
	VPADDD       64(DI), Z1, Z1
	VPADDD       128(DI), Z2, Z2
	VPADDD       192(DI), Z3, Z3
	VPADDD       256(DI), Z4, Z4
	VMOVDQU32    Z0, 0(DI)
	VMOVDQU32    Z1, 64(DI)
	VMOVDQU32    Z2, 128(DI)
	VMOVDQU32    Z3, 192(DI)
	VMOVDQU32    Z4, 256(DI)
	DECQ         CX
	JNZ          block

	VMOVDQU32    Z9, (DX)
	VZEROUPPER
	RET

// flipWords reverses the bytes of each 32-bit word of a 16-byte lane
// (VPSHUFB), broadcast to the four lanes of a ZMM register.
DATA flipWords<>+0(SB)/8, $0x0405060700010203
DATA flipWords<>+8(SB)/8, $0x0c0d0e0f08090a0b
GLOBL flipWords<>(SB), RODATA|NOPTR, $16
