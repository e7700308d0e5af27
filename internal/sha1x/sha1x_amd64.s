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
