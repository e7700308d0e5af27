#include "textflag.h"

// gfniWords decides the 64 offsets of each of n words: word i's bit j is set
// when the window w[64i+j : 64i+j+WindowSize] is a cut-point candidate. The
// low 16 bits of a window's fingerprint are, bit for bit, the XOR over its
// WindowSize bytes of an 8x8 bit-matrix product of each byte (NewTable,
// Table.affine). So for a word, the 64-byte load at w+64i+k holds window
// byte k of all 64 offsets, one per byte lane, and VGF2P8AFFINEQB applies
// the byte-k matrix of output byte o (0: fingerprint bits 0-7, 1: bits 8-15)
// to every lane at once; the products XOR, two window bytes at a time with
// VPTERNLOGQ, into one accumulator per output byte. The accumulators start
// at magic, so a lane is a candidate when both of its accumulator bytes are
// zero under mask: VPTESTNMB sets the opmask bit of each such lane, the
// second byte's test under the first's result, and the 64-bit opmask is the
// bitmap word. Word i reads w[64i : 64i+64+WindowSize-1], nothing past
// its last window.
//
// The main loop decides four words per step, so each matrix is broadcast
// once for four words' products (broadcasting it into every product from
// memory made the kernel load-bound); the last n mod 4 words take one word
// per step. Registers:
//
//	Z0, Z1   a word's loads of window bytes k and k+1
//	Z2, Z3   their products
//	Z4, Z5   byte k's matrices for output bytes 0 and 1, in every quadword
//	Z6, Z7   byte k+1's
//	Z16-Z23  the accumulators of output bytes 0 and 1 of words 0-3
//	Z28, Z29 mask's bytes 0 and 1 in every lane
//	Z30, Z31 magic's bytes 0 and 1 in every lane
//	K1       a word's candidates
//	SI       w at the step's first word, DI its bitmap word, DX
//	         Table.affine (affine[k][o] at 16k+8o), CX the words left
//
// VZEROUPPER follows the vector work, so the SSE code Go compiles pays no
// transition cost for the dirty upper halves.

// MATRICES broadcasts the matrices of window bytes K and K+1.
#define MATRICES(K) \
	VPBROADCASTQ   (16*K)(DX), Z4; \
	VPBROADCASTQ   (16*K+8)(DX), Z5; \
	VPBROADCASTQ   (16*K+16)(DX), Z6; \
	VPBROADCASTQ   (16*K+24)(DX), Z7

// WORD XORs the products of window bytes K and K+1 of the word at OFF(SI)
// into its accumulators A0 (output byte 0) and A1 (output byte 1).
#define WORD(K, OFF, A0, A1) \
	VMOVDQU64      (OFF+K)(SI), Z0; \
	VMOVDQU64      (OFF+K+1)(SI), Z1; \
	VGF2P8AFFINEQB $0, Z4, Z0, Z2; \
	VGF2P8AFFINEQB $0, Z6, Z1, Z3; \
	VPTERNLOGQ     $0x96, Z2, Z3, A0; \
	VGF2P8AFFINEQB $0, Z5, Z0, Z2; \
	VGF2P8AFFINEQB $0, Z7, Z1, Z3; \
	VPTERNLOGQ     $0x96, Z2, Z3, A1

// QUAD is WORD for the step's four words.
#define QUAD(K) \
	MATRICES(K); \
	WORD(K, 0, Z16, Z17); \
	WORD(K, 64, Z18, Z19); \
	WORD(K, 128, Z20, Z21); \
	WORD(K, 192, Z22, Z23)

// ONE is WORD for a step of one word.
#define ONE(K) \
	MATRICES(K); \
	WORD(K, 0, Z16, Z17)

// SEED starts accumulators A0 and A1 at magic's bytes.
#define SEED(A0, A1) \
	VMOVDQA64      Z30, A0; \
	VMOVDQA64      Z31, A1

// TEST stores the candidates of accumulators A0 and A1 to OFF(DI).
#define TEST(A0, A1, OFF) \
	VPTESTNMB      Z28, A0, K1; \
	VPTESTNMB      Z29, A1, K1, K1; \
	KMOVQ          K1, OFF(DI)

// func gfniWords(bm *uint64, w *byte, n int, aff *[WindowSize][2]uint64, mask, magic uint64)
TEXT ·gfniWords(SB), NOSPLIT, $0-48
	MOVQ         bm+0(FP), DI
	MOVQ         w+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         aff+24(FP), DX
	TESTQ        CX, CX
	JLE          done
	MOVQ         mask+32(FP), AX
	VPBROADCASTB AX, Z28
	SHRQ         $8, AX
	VPBROADCASTB AX, Z29
	MOVQ         magic+40(FP), AX
	VPBROADCASTB AX, Z30
	SHRQ         $8, AX
	VPBROADCASTB AX, Z31
	CMPQ         CX, $4
	JLT          loop1

loop4:
	SEED(Z16, Z17)
	SEED(Z18, Z19)
	SEED(Z20, Z21)
	SEED(Z22, Z23)
	QUAD(0)
	QUAD(2)
	QUAD(4)
	QUAD(6)
	QUAD(8)
	QUAD(10)
	QUAD(12)
	QUAD(14)
	QUAD(16)
	QUAD(18)
	QUAD(20)
	QUAD(22)
	QUAD(24)
	QUAD(26)
	QUAD(28)
	QUAD(30)
	TEST(Z16, Z17, 0)
	TEST(Z18, Z19, 8)
	TEST(Z20, Z21, 16)
	TEST(Z22, Z23, 24)
	ADDQ         $256, SI
	ADDQ         $32, DI
	SUBQ         $4, CX
	CMPQ         CX, $4
	JGE          loop4
	TESTQ        CX, CX
	JZ           vzero

loop1:
	SEED(Z16, Z17)
	ONE(0)
	ONE(2)
	ONE(4)
	ONE(6)
	ONE(8)
	ONE(10)
	ONE(12)
	ONE(14)
	ONE(16)
	ONE(18)
	ONE(20)
	ONE(22)
	ONE(24)
	ONE(26)
	ONE(28)
	ONE(30)
	TEST(Z16, Z17, 0)
	ADDQ         $64, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          loop1

vzero:
	VZEROUPPER

done:
	RET
