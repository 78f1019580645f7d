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
DATA consts<>+96(SB)/8, $0xc09ffe0000000000  // −(QuantRadius − 0.5)
DATA consts<>+104(SB)/8, $0xc09ffe0000000000
DATA consts<>+112(SB)/8, $0xc09ffe0000000000
DATA consts<>+120(SB)/8, $0xc09ffe0000000000
DATA consts<>+128(SB)/8, $0x4010000000000000 // 4.0, the index step
DATA consts<>+136(SB)/8, $0x4010000000000000
DATA consts<>+144(SB)/8, $0x4010000000000000
DATA consts<>+152(SB)/8, $0x4010000000000000
DATA consts<>+160(SB)/8, $0x0000000000000000 // the first quad's indices 0, 1, 2, 3
DATA consts<>+168(SB)/8, $0x3ff0000000000000
DATA consts<>+176(SB)/8, $0x4000000000000000
DATA consts<>+184(SB)/8, $0x4008000000000000
DATA consts<>+192(SB)/4, $2048               // QuantRadius as int32, four times
DATA consts<>+196(SB)/4, $2048
DATA consts<>+200(SB)/4, $2048
DATA consts<>+204(SB)/4, $2048
DATA consts<>+208(SB)/8, $0x7fffffffffffffff // float64 magnitude mask
DATA consts<>+216(SB)/8, $0x7fffffffffffffff
DATA consts<>+224(SB)/8, $0x7fffffffffffffff
DATA consts<>+232(SB)/8, $0x7fffffffffffffff
DATA consts<>+240(SB)/8, $0xffffffffffffffff // −1 as int32, four times
DATA consts<>+248(SB)/8, $0xffffffffffffffff
GLOBL consts<>(SB), RODATA|NOPTR, $256

// func quantizeLinearAVX2(codes []uint16, block []float32, a, b, invWidth, binWidth, ebAbs float64) (last, worst float64, escaped bool, lo, hi uint32)
TEXT ·quantizeLinearAVX2(SB), NOSPLIT, $0-116
	MOVQ         codes_base+0(FP), DI
	MOVQ         block_base+24(FP), SI
	MOVQ         block_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y0
	VBROADCASTSD b+56(FP), Y1
	VBROADCASTSD invWidth+64(FP), Y2
	VBROADCASTSD binWidth+72(FP), Y3
	VBROADCASTSD ebAbs+80(FP), Y4
	VMOVUPD      consts<>+160(SB), Y6   // the quad's indices
	XORL         DX, DX                 // escaped lanes, any quad
	VPXOR        X15, X15, X15          // the greatest code, a lane
	VPCMPEQD     X5, X5, X5             // the least code − 1, a lane
	VXORPD       Y14, Y14, Y14          // the largest |diff| that quantized, a lane

loop:
	VCVTPS2PD   (SI), Y7                      // v
	VMULPD      Y6, Y0, Y8
	VADDPD      Y1, Y8, Y8                    // pred = a·i + b
	VSUBPD      Y8, Y7, Y9
	VMULPD      Y2, Y9, Y9                    // scaled = (v − pred)·invWidth
	VCMPPD      $0x1e, consts<>+96(SB), Y9, Y10 // scaled > −(R − 0.5), ordered
	VCMPPD      $0x11, consts<>+64(SB), Y9, Y11 // scaled < R − 0.5, ordered
	VANDPD      Y11, Y10, Y10
	VANDPD      consts<>+0(SB), Y9, Y11
	VORPD       consts<>+32(SB), Y11, Y11     // copysign(0.5, scaled)
	VADDPD      Y11, Y9, Y11
	VCVTTPD2DQY Y11, X11                      // k = fastRound(scaled)
	VCVTDQ2PD   X11, Y12
	VMULPD      Y3, Y12, Y12
	VADDPD      Y12, Y8, Y12                  // pred + k·binWidth
	VCVTPD2PSY  Y12, X12                      // rec32, MXCSR rounding
	VCVTPS2PD   X12, Y12
	VSUBPD      Y12, Y7, Y13                  // diff = v − rec32
	VANDPD      consts<>+208(SB), Y13, Y13
	VCMPPD      $0x12, Y4, Y13, Y9            // |diff| <= ebAbs, ordered: −ebAbs <= diff <= ebAbs
	VANDPD      Y9, Y10, Y10                  // the lanes that quantize
	VANDPD      Y10, Y13, Y13                 // their |diff|, +0 in the others
	VMAXPD      Y13, Y14, Y14
	VPADDD      consts<>+192(SB), X11, X11    // k + R
	VEXTRACTF128 $1, Y10, X9
	VSHUFPS     $0x88, X9, X10, X9            // one 32-bit mask per lane
	VPAND       X9, X11, X11                  // EscapeCode in the others
	VPMAXUD     X11, X15, X15
	VPADDD      consts<>+240(SB), X11, X13    // code − 1: EscapeCode wraps to the top
	VPMINUD     X13, X5, X5
	VPACKUSDW   X11, X11, X11
	VMOVQ       X11, (DI)
	VMOVMSKPD   Y10, AX
	XORL        $15, AX
	ORL         AX, DX
	VADDPD      consts<>+128(SB), Y6, Y6
	ADDQ        $16, SI
	ADDQ        $8, DI
	SUBQ        $4, CX
	JNZ         loop

	VEXTRACTF128 $1, Y12, X12
	VUNPCKHPD    X12, X12, X12 // the last lane's reconstruction
	VMOVSD       X12, last+88(FP)
	VEXTRACTF128 $1, Y14, X13
	VMAXPD       X13, X14, X14
	VUNPCKHPD    X14, X14, X13
	VMAXSD       X13, X14, X14
	VMOVSD       X14, worst+96(FP)
	TESTL        DX, DX
	SETNE        escaped+104(FP)
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
	MOVL         AX, lo+108(FP)
	VMOVD        X15, AX
	MOVL         AX, hi+112(FP)
	VZEROUPPER
	RET

// func dequantizeLinearAVX2(out []float32, codes []uint16, a, b, binWidth float64) (escaped bool, absBits uint32)
TEXT ·dequantizeLinearAVX2(SB), NOSPLIT, $0-80
	MOVQ         out_base+0(FP), DI
	MOVQ         codes_base+24(FP), SI
	MOVQ         codes_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y0
	VBROADCASTSD b+56(FP), Y1
	VBROADCASTSD binWidth+64(FP), Y2
	VMOVUPD      consts<>+160(SB), Y3 // the quad's indices
	VMOVDQU      consts<>+192(SB), X5
	VPXOR        X6, X6, X6
	XORL         DX, DX               // escape codes, any quad
	VPCMPEQD     X9, X9, X9
	VPSRLD       $1, X9, X9           // the float32 magnitude mask
	VPXOR        X10, X10, X10        // the largest magnitude bits, a lane

dloop:
	VPMOVZXWD  (SI), X7
	VPCMPEQD   X6, X7, X8
	VPMOVMSKB  X8, AX
	ORL        AX, DX
	VPSUBD     X5, X7, X7 // code − R
	VCVTDQ2PD  X7, Y7
	VMULPD     Y2, Y7, Y7
	VMULPD     Y3, Y0, Y8
	VADDPD     Y1, Y8, Y8 // pred = a·i + b
	VADDPD     Y7, Y8, Y8 // pred + (code − R)·binWidth
	VCVTPD2PSY Y8, X8
	VMOVUPS    X8, (DI)
	VPAND      X9, X8, X8
	VPMAXUD    X8, X10, X10
	VADDPD     consts<>+128(SB), Y3, Y3
	ADDQ       $8, SI
	ADDQ       $16, DI
	SUBQ       $4, CX
	JNZ        dloop

	TESTL   DX, DX
	SETNE   escaped+72(FP)
	VPSHUFD $0x4e, X10, X8
	VPMAXUD X8, X10, X10
	VPSHUFD $0xb1, X10, X8
	VPMAXUD X8, X10, X10
	VMOVD   X10, AX
	MOVL    AX, absBits+76(FP)
	VZEROUPPER
	RET
