#include "textflag.h"

// func addScaledAVX2(a, b []float32, w float32)
TEXT ·addScaledAVX2(SB), NOSPLIT, $0-52
	MOVQ         a_base+0(FP), DI
	MOVQ         a_len+8(FP), CX
	MOVQ         b_base+24(FP), SI
	VBROADCASTSS w+48(FP), Y0

loop:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1 // b·w, b first as in Go's MULSS
	VMOVUPS (DI), Y2
	VADDPS  Y1, Y2, Y2 // a + b·w, a first as in Go's ADDSS
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     loop
	VZEROUPPER
	RET
