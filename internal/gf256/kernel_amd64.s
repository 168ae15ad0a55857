#include "textflag.h"

// The nibble-table shuffle: VPSHUFB looks 32 bytes up in a 16-entry table at
// once, so with c's two tables (products of the low and of the high nibble)
// broadcast to both lanes, c*src is two shuffles and a XOR per 32 bytes.

// MULSTEP leaves c * 32 bytes at (SI) in Y3. Y0/Y1 hold the low/high nibble
// tables, Y2 the 0x0f byte mask.
#define MULSTEP \
	VMOVDQU (SI), Y3    \
	VPSRLQ  $4, Y3, Y4  \
	VPAND   Y2, Y3, Y3  \
	VPAND   Y2, Y4, Y4  \
	VPSHUFB Y3, Y0, Y3  \
	VPSHUFB Y4, Y1, Y4  \
	VPXOR   Y3, Y4, Y3

// SETUP loads the arguments: DI = dst, SI = src, CX = 32-byte steps, and the
// tables and mask as MULSTEP wants them. It jumps to done when CX is 0.
// Every vector instruction is VEX-coded (VMOVQ, not MOVQ): one legacy SSE
// instruction while the upper YMM halves are in use cost ~120 ns a call.
#define SETUP \
	MOVQ           tbl+0(FP), AX       \
	MOVQ           dst_base+8(FP), DI  \
	MOVQ           src_base+32(FP), SI \
	MOVQ           src_len+40(FP), CX  \
	SHRQ           $5, CX              \
	JZ             done                \
	MOVQ           $15, BX             \
	VMOVQ          BX, X2              \
	VPBROADCASTB   X2, Y2              \
	VBROADCASTI128 (AX), Y0            \
	VBROADCASTI128 16(AX), Y1

// func mulAVX2(tbl *[2][16]byte, dst, src []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	SETUP

loop:
	MULSTEP
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func mulAddAVX2(tbl *[2][16]byte, dst, src []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	SETUP

loop:
	MULSTEP
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET
