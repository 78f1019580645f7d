#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// FOLD reduces the eight lanes of y by op into lane 0 of x, y's low half.
#define FOLD(op, y, x) \
	VEXTRACTF128 $1, y, X7; \
	op           X7, x, x; \
	VPSHUFD      $0x4e, x, X7; \
	op           X7, x, x; \
	VPSHUFD      $0xb1, x, X7; \
	op           X7, x, x

// RANGE_LANES starts a range scan: lo lanes Y0 at +Inf, hi lanes Y1 at −Inf,
// magnitude-bits lanes Y4 at 0 and the magnitude mask 0x7fffffff in Y6.
#define RANGE_LANES \
	MOVL         $0x7f800000, AX; \
	VMOVD        AX, X0; \
	VPBROADCASTD X0, Y0; \
	VPCMPEQD     Y6, Y6, Y6; \
	VPSLLD       $31, Y6, Y1; \
	VPOR         Y0, Y1, Y1; \
	VPSRLD       $1, Y6, Y6; \
	VPXOR        Y4, Y4, Y4

// func scanAVX2(data []float32) (lo, hi float32, absBits uint32)
TEXT ·scanAVX2(SB), NOSPLIT, $0-36
	MOVQ         data_base+0(FP), SI
	MOVQ         data_len+8(FP), CX
	RANGE_LANES

scan:
	VMOVUPS (SI), Y7
	VMINPS  Y7, Y0, Y0
	VMAXPS  Y7, Y1, Y1
	VPAND   Y6, Y7, Y7
	VPMAXUD Y7, Y4, Y4
	ADDQ    $32, SI
	SUBQ    $8, CX
	JNZ     scan

	FOLD(VMINPS, Y0, X0)
	FOLD(VMAXPS, Y1, X1)
	FOLD(VPMAXUD, Y4, X4)
	VMOVSS X0, lo+24(FP)
	VMOVSS X1, hi+28(FP)
	VMOVD  X4, AX
	MOVL   AX, absBits+32(FP)
	VZEROUPPER
	RET

// func residualAVX2(res, data, ref []float32) (loD, hiD, loR, hiR float32, absD, absR uint32)
TEXT ·residualAVX2(SB), NOSPLIT, $0-96
	MOVQ         res_base+0(FP), DI
	MOVQ         data_base+24(FP), SI
	MOVQ         data_len+32(FP), CX
	MOVQ         ref_base+48(FP), DX
	RANGE_LANES               // data's lo, hi and magnitude-bits lanes
	VMOVDQU      Y0, Y2       // res's lo lanes
	VMOVDQU      Y1, Y3       // res's hi lanes
	VPXOR        Y5, Y5, Y5   // res's magnitude-bits lanes

loop:
	VMOVUPS (SI), Y7
	VSUBPS  (DX), Y7, Y8 // data − ref, data first as in Go's SUBSS
	VMOVUPS Y8, (DI)

	// On a tie VMINPS and VMAXPS both return their second source, here
	// the element, so equal lo and hi stay one element (see Extent.Span).
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

// func offsetAVX2(dst, ref []float32, v float32)
TEXT ·offsetAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         ref_base+24(FP), SI
	VBROADCASTSS v+48(FP), Y0

loop:
	VMOVUPS (SI), Y1
	VADDPS  Y0, Y1, Y1 // ref + v, ref first as in addAVX2
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     loop
	VZEROUPPER
	RET

// func withinAVX2(data, ref []float32, mid float32, eb float64) bool
TEXT ·withinAVX2(SB), NOSPLIT, $0-65
	MOVQ         data_base+0(FP), SI
	MOVQ         data_len+8(FP), CX
	MOVQ         ref_base+24(FP), DX
	VBROADCASTSS mid+48(FP), Y0
	VBROADCASTSD eb+56(FP), Y1
	VPCMPEQQ     Y2, Y2, Y2
	VPSRLQ       $1, Y2, Y2   // the float64 magnitude mask

loop:
	VMOVUPS      (DX), Y3
	VADDPS       Y0, Y3, Y3   // ref + mid, ref first as in Go's ADDSS
	VCVTPS2PD    X3, Y4
	VEXTRACTF128 $1, Y3, X3
	VCVTPS2PD    X3, Y3
	VCVTPS2PD    (SI), Y5
	VCVTPS2PD    16(SI), Y6
	VSUBPD       Y4, Y5, Y5   // data − fl(ref + mid), as Go's SUBSD
	VSUBPD       Y3, Y6, Y6
	VANDPD       Y2, Y5, Y5
	VANDPD       Y2, Y6, Y6

	// GT_OQ is Go's >: false when either side is a NaN.
	VCMPPD $0x1e, Y1, Y5, Y5
	VCMPPD $0x1e, Y1, Y6, Y6
	VPOR   Y5, Y6, Y5
	VPTEST Y5, Y5
	JNZ    done       // a miss leaves CX > 0
	ADDQ   $32, SI
	ADDQ   $32, DX
	SUBQ   $8, CX
	JNZ    loop

done:
	TESTQ CX, CX
	SETEQ ret+64(FP)
	VZEROUPPER
	RET
