#include "textflag.h"

// Constants, the float64 ones four times over so an instruction can take
// them as a 256-bit memory operand.
DATA consts<>+0(SB)/8, $0x8000000000000000   // float64 sign bit
DATA consts<>+8(SB)/8, $0x8000000000000000
DATA consts<>+16(SB)/8, $0x8000000000000000
DATA consts<>+24(SB)/8, $0x8000000000000000
DATA consts<>+32(SB)/8, $0x3fe0000000000000  // 0.5
DATA consts<>+40(SB)/8, $0x3fe0000000000000
DATA consts<>+48(SB)/8, $0x3fe0000000000000
DATA consts<>+56(SB)/8, $0x3fe0000000000000
DATA consts<>+64(SB)/8, $0x409ffe0000000000  // QuantRadius − 0.5 = 2047.5
DATA consts<>+72(SB)/8, $0x409ffe0000000000
DATA consts<>+80(SB)/8, $0x409ffe0000000000
DATA consts<>+88(SB)/8, $0x409ffe0000000000
DATA consts<>+96(SB)/8, $0x7fffffffffffffff  // float64 magnitude mask
DATA consts<>+104(SB)/8, $0x7fffffffffffffff
DATA consts<>+112(SB)/8, $0x7fffffffffffffff
DATA consts<>+120(SB)/8, $0x7fffffffffffffff
DATA consts<>+128(SB)/4, $2048               // QuantRadius as int32, four times
DATA consts<>+132(SB)/4, $2048
DATA consts<>+136(SB)/4, $2048
DATA consts<>+140(SB)/4, $2048
DATA consts<>+144(SB)/8, $0xffffffffffffffff // −1 as int32, four times
DATA consts<>+152(SB)/8, $0xffffffffffffffff
GLOBL consts<>(SB), RODATA|NOPTR, $160

// ZA and ZB are the two halves of a zero-line quad (quantizeZeroLineAVX2's
// loop, software pipelined): ZA loads the quad at SI and computes v, the
// range mask, k and the widened rec32 = float32(k·binWidth); ZB checks a quad
// ZA computed, |v − rec32| ≤ ebAbs, and stores its codes at DI, growing the
// worst error, the code span and the escape flag. Y9 and Y13 are scratch.
#define ZA(v, rng, k, rec) \
	VCVTPS2PD   (SI), v; \
	VMULPD      Y2, v, Y9; \
	VANDPD      consts<>+96(SB), Y9, rng; \
	VCMPPD      $0x11, consts<>+64(SB), rng, rng; \
	VANDPD      consts<>+0(SB), Y9, Y13; \
	VORPD       consts<>+32(SB), Y13, Y13; \
	VADDPD      Y13, Y9, Y13; \
	VCVTTPD2DQY Y13, k; \
	VCVTDQ2PD   k, rec; \
	VMULPD      Y3, rec, rec; \
	VCVTPD2PSY  rec, X13; \
	VCVTPS2PD   X13, rec

#define ZB(v, rng, k, xrng, rec) \
	VSUBPD       rec, v, Y13; \
	VANDPD       consts<>+96(SB), Y13, Y13; \
	VCMPPD       $0x12, Y4, Y13, Y9; \
	VANDPD       Y9, rng, rng; \
	VANDPD       rng, Y13, Y13; \
	VMAXPD       Y13, Y14, Y14; \
	VPADDD       consts<>+128(SB), k, k; \
	VEXTRACTF128 $1, rng, X9; \
	VSHUFPS      $0x88, X9, xrng, X9; \
	VPAND        X9, k, k; \
	VPMAXUD      k, X15, X15; \
	VPADDD       consts<>+144(SB), k, X13; \
	VPMINUD      X13, X5, X5; \
	VPACKUSDW    k, k, k; \
	VMOVQ        k, (DI); \
	VMOVMSKPD    rng, AX; \
	XORL         $15, AX; \
	ORL          AX, DX

// func quantizeZeroLineAVX2(codes []uint16, block []float32, invWidth, binWidth, ebAbs float64) (last, worst float64, escaped bool, lo, hi uint32)
//
// With the prediction +0, v − pred is v and pred + k·binWidth is k·binWidth,
// bit for bit (k·binWidth is never −0), so no index or line is computed.
// Each step computes the next quad (ZA) while it checks and stores the one
// before (ZB), whose inputs are ready by then: fewer of a step's operations
// wait on the long chain from the load to rec32. Y6, Y8, X1 and Y0 carry a
// quad from ZA to ZB.
TEXT ·quantizeZeroLineAVX2(SB), NOSPLIT, $0-100
	MOVQ         codes_base+0(FP), DI
	MOVQ         block_base+24(FP), SI
	MOVQ         block_len+32(FP), CX
	VBROADCASTSD invWidth+48(FP), Y2
	VBROADCASTSD binWidth+56(FP), Y3
	VBROADCASTSD ebAbs+64(FP), Y4
	XORL         DX, DX                 // escaped lanes, any quad
	VPXOR        X15, X15, X15          // the greatest code, a lane
	VPCMPEQD     X5, X5, X5             // the least code − 1, a lane
	VXORPD       Y14, Y14, Y14          // the largest |diff| that quantized, a lane
	ZA(Y6, Y8, X1, Y0)
	ADDQ         $16, SI
	SUBQ         $4, CX
	JZ           last

loop:
	ZA(Y7, Y10, X11, Y12)
	ZB(Y6, Y8, X1, X8, Y0)
	VMOVAPD     Y7, Y6
	VMOVAPD     Y10, Y8
	VMOVDQA     X11, X1
	VMOVAPD     Y12, Y0
	ADDQ        $16, SI
	ADDQ        $8, DI
	SUBQ        $4, CX
	JNZ         loop

last:
	ZB(Y6, Y8, X1, X8, Y0)
	VEXTRACTF128 $1, Y0, X12
	VUNPCKHPD    X12, X12, X12 // the last lane's reconstruction
	VMOVSD       X12, last+72(FP)
	VEXTRACTF128 $1, Y14, X13
	VMAXPD       X13, X14, X14
	VUNPCKHPD    X14, X14, X13
	VMAXSD       X13, X14, X14
	VMOVSD       X14, worst+80(FP)
	TESTL        DX, DX
	SETNE        escaped+88(FP)
	VPSHUFD      $0x4e, X15, X13
	VPMAXUD      X13, X15, X15
	VPSHUFD      $0xb1, X15, X13
	VPMAXUD      X13, X15, X15
	VPSHUFD      $0x4e, X5, X13
	VPMINUD      X13, X5, X5
	VPSHUFD      $0xb1, X5, X13
	VPMINUD      X13, X5, X5
	VMOVD        X5, AX
	INCL         AX             // 0 when every lane escaped
	MOVL         AX, lo+92(FP)
	VMOVD        X15, AX
	MOVL         AX, hi+96(FP)
	VZEROUPPER
	RET

// func dequantizeTableAVX2(out []float32, codes []uint16, table []float32, lo uint32) (escaped bool, absBits uint32)
TEXT ·dequantizeTableAVX2(SB), NOSPLIT, $0-88
	MOVQ         out_base+0(FP), DI
	MOVQ         codes_base+24(FP), SI
	MOVQ         codes_len+32(FP), CX
	MOVQ         table_base+48(FP), BX
	MOVQ         table_len+56(FP), AX
	DECQ         AX
	VMOVD        AX, X4
	VPBROADCASTD X4, Y4        // the table's last index
	MOVL         lo+72(FP), AX
	VMOVD        AX, X5
	VPBROADCASTD X5, Y5
	VPXOR        Y6, Y6, Y6
	VPCMPEQD     Y8, Y8, Y8    // the lanes no step found an escape code in
	VPCMPEQD     Y9, Y9, Y9
	VPSRLD       $1, Y9, Y9    // the float32 magnitude mask
	VPXOR        Y10, Y10, Y10 // the largest magnitude bits, a lane

tloop:
	VPMOVZXWD  (SI), Y7
	VPCMPGTD   Y6, Y7, Y2          // the lanes whose code is not EscapeCode: the gather's mask
	VPAND      Y2, Y8, Y8
	VPSUBD     Y5, Y7, Y7          // code − lo
	VPMAXSD    Y6, Y7, Y7
	VPMINSD    Y4, Y7, Y7          // clamped into the table
	VPXOR      Y3, Y3, Y3          // +0 in the escaped lanes
	VPGATHERDD Y2, (BX)(Y7*4), Y3
	VMOVDQU    Y3, (DI)
	VPAND      Y9, Y3, Y3
	VPMAXUD    Y3, Y10, Y10
	ADDQ       $16, SI
	ADDQ       $32, DI
	SUBQ       $8, CX
	JNZ        tloop

	VPMOVMSKB    Y8, AX
	NOTL         AX
	TESTL        AX, AX
	SETNE        escaped+80(FP)
	VEXTRACTI128 $1, Y10, X8
	VPMAXUD      X8, X10, X10
	VPSHUFD      $0x4e, X10, X8
	VPMAXUD      X8, X10, X10
	VPSHUFD      $0xb1, X10, X8
	VPMAXUD      X8, X10, X10
	VMOVD        X10, AX
	MOVL         AX, absBits+84(FP)
	VZEROUPPER
	RET
