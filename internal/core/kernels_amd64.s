#include "textflag.h"

// FOLD reduces the eight lanes of y by op into lane 0 of x, y's low half.
#define FOLD(op, y, x) \
	VEXTRACTF128 $1, y, X7; \
	op           X7, x, x; \
	VPSHUFD      $0x4e, x, X7; \
	op           X7, x, x; \
	VPSHUFD      $0xb1, x, X7; \
	op           X7, x, x

// func residualAVX2(res, data, ref []float32) (loD, hiD, loR, hiR float32, absD, absR uint32)
TEXT ·residualAVX2(SB), NOSPLIT, $0-96
	MOVQ         res_base+0(FP), DI
	MOVQ         data_base+24(FP), SI
	MOVQ         data_len+32(FP), CX
	MOVQ         ref_base+48(FP), DX
	MOVL         $0x7f800000, AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0       // data's lo lanes: +Inf
	VPCMPEQD     Y6, Y6, Y6
	VPSLLD       $31, Y6, Y1
	VPOR         Y0, Y1, Y1   // data's hi lanes: −Inf
	VPSRLD       $1, Y6, Y6   // the magnitude mask, 0x7fffffff
	VMOVDQU      Y0, Y2       // res's lo lanes
	VMOVDQU      Y1, Y3       // res's hi lanes
	VPXOR        Y4, Y4, Y4   // data's magnitude-bits lanes
	VPXOR        Y5, Y5, Y5   // res's magnitude-bits lanes

loop:
	VMOVUPS (SI), Y7
	VSUBPS  (DX), Y7, Y8 // data − ref, data first as in Go's SUBSS
	VMOVUPS Y8, (DI)

	// On a tie VMINPS and VMAXPS both return their second source, here
	// the element, so equal lo and hi stay one element (see extent.span).
	VMINPS  Y7, Y0, Y0
	VMAXPS  Y7, Y1, Y1
	VMINPS  Y8, Y2, Y2
	VMAXPS  Y8, Y3, Y3
	VPAND   Y6, Y7, Y7
	VPMAXUD Y7, Y4, Y4
	VPAND   Y6, Y8, Y8
	VPMAXUD Y8, Y5, Y5
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     loop

	FOLD(VMINPS, Y0, X0)
	FOLD(VMAXPS, Y1, X1)
	FOLD(VMINPS, Y2, X2)
	FOLD(VMAXPS, Y3, X3)
	FOLD(VPMAXUD, Y4, X4)
	FOLD(VPMAXUD, Y5, X5)
	VMOVSS X0, loD+72(FP)
	VMOVSS X1, hiD+76(FP)
	VMOVSS X2, loR+80(FP)
	VMOVSS X3, hiR+84(FP)
	VMOVD  X4, AX
	MOVL   AX, absD+88(FP)
	VMOVD  X5, AX
	MOVL   AX, absR+92(FP)
	VZEROUPPER
	RET

// func addAVX2(data, ref []float32)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ data_base+0(FP), DI
	MOVQ data_len+8(FP), CX
	MOVQ ref_base+24(FP), SI

add:
	VMOVUPS (SI), Y0
	VADDPS  (DI), Y0, Y0 // ref + data: Go loads ref and ADDSS adds data to it
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     add
	VZEROUPPER
	RET
