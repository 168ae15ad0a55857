#include "textflag.h"

// SHA-1 on the x86 SHA extensions, four rounds per SHA1RNDS4. The state
// lives as ABCD (A in the high dword) and E (in the high dword of E0/E1,
// which take turns: SHA1NEXTE folds the rotated A of four rounds ago into the
// next four message words). MSG0..MSG3 hold the sliding 16-word schedule
// window; SHA1MSG1, PXOR and SHA1MSG2 produce words t+16..t+19 from it.

#define ABCD X0
#define E0   X1
#define E1   X2
#define MSG0 X3
#define MSG1 X4
#define MSG2 X5
#define MSG3 X6
#define FLIP X7
#define SAVE_E    X8
#define SAVE_ABCD X9

// ROUNDS4 runs rounds 4g..4g+3 for a middle g (4 ≤ g ≤ 16): m0 holds the
// group's message words, ecur its E; fn is the round function, g/5. Around
// the rounds it advances the schedule by one step for each of the next three
// groups: SHA1MSG1 starts the words of group g+3 (in m3, over those of g-1),
// PXOR continues g+2 (m2), SHA1MSG2 finishes g+1 (m1). The first four groups
// load m0 instead, and the last three drop the steps whose target group is
// past round 79.
#define ROUNDS4(fn, ecur, enext, m0, m1, m2, m3) \
	SHA1NEXTE m0, ecur         \
	MOVO      ABCD, enext      \
	SHA1MSG2  m0, m1           \
	SHA1RNDS4 fn, ecur, ABCD   \
	SHA1MSG1  m0, m3           \
	PXOR      m0, m2

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	JZ   done
	ADDQ SI, DX

	MOVOU  (DI), ABCD
	PSHUFD $0x1b, ABCD, ABCD
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0
	MOVOU  flip<>(SB), FLIP

loop:
	MOVO E0, SAVE_E
	MOVO ABCD, SAVE_ABCD

	// The rounds are one dependency chain, so a load that misses stalls all
	// of it, and the hardware prefetcher alone does not keep up: over input
	// that is not in cache (a 32 MiB object, hashed once as chunks and once
	// as the file) this one hint is 1.1 -> 1.7 GB/s, and free when the
	// input is cached. A prefetch past the end of p cannot fault.
	PREFETCHT0 1024(SI)

	// Rounds 0-3
	MOVOU     (SI), MSG0
	PSHUFB    FLIP, MSG0
	PADDD     MSG0, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD

	// Rounds 4-7
	MOVOU     16(SI), MSG1
	PSHUFB    FLIP, MSG1
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  MSG1, MSG0

	// Rounds 8-11
	MOVOU     32(SI), MSG2
	PSHUFB    FLIP, MSG2
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD
	SHA1MSG1  MSG2, MSG1
	PXOR      MSG2, MSG0

	// Rounds 12-15
	MOVOU     48(SI), MSG3
	PSHUFB    FLIP, MSG3
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG3, MSG0
	SHA1RNDS4 $0, E1, ABCD
	SHA1MSG1  MSG3, MSG2
	PXOR      MSG3, MSG1

	// Rounds 16-67
	ROUNDS4($0, E0, E1, MSG0, MSG1, MSG2, MSG3)
	ROUNDS4($1, E1, E0, MSG1, MSG2, MSG3, MSG0)
	ROUNDS4($1, E0, E1, MSG2, MSG3, MSG0, MSG1)
	ROUNDS4($1, E1, E0, MSG3, MSG0, MSG1, MSG2)
	ROUNDS4($1, E0, E1, MSG0, MSG1, MSG2, MSG3)
	ROUNDS4($1, E1, E0, MSG1, MSG2, MSG3, MSG0)
	ROUNDS4($2, E0, E1, MSG2, MSG3, MSG0, MSG1)
	ROUNDS4($2, E1, E0, MSG3, MSG0, MSG1, MSG2)
	ROUNDS4($2, E0, E1, MSG0, MSG1, MSG2, MSG3)
	ROUNDS4($2, E1, E0, MSG1, MSG2, MSG3, MSG0)
	ROUNDS4($2, E0, E1, MSG2, MSG3, MSG0, MSG1)
	ROUNDS4($3, E1, E0, MSG3, MSG0, MSG1, MSG2)
	ROUNDS4($3, E0, E1, MSG0, MSG1, MSG2, MSG3)

	// Rounds 68-71
	SHA1NEXTE MSG1, E1
	MOVO      ABCD, E0
	SHA1MSG2  MSG1, MSG2
	SHA1RNDS4 $3, E1, ABCD
	PXOR      MSG1, MSG3

	// Rounds 72-75
	SHA1NEXTE MSG2, E0
	MOVO      ABCD, E1
	SHA1MSG2  MSG2, MSG3
	SHA1RNDS4 $3, E0, ABCD

	// Rounds 76-79
	SHA1NEXTE MSG3, E1
	MOVO      ABCD, E0
	SHA1RNDS4 $3, E1, ABCD

	// Add the block's input state.
	SHA1NEXTE SAVE_E, E0
	PADDD     SAVE_ABCD, ABCD

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)

done:
	RET

// PSHUFB mask reversing all 16 bytes: the four big-endian message words of a
// load end up byte-swapped and in the dword order SHA1RNDS4 expects.
DATA flip<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flip<>+8(SB)/8, $0x0001020304050607
GLOBL flip<>(SB), RODATA|NOPTR, $16
