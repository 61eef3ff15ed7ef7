// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_md(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[120]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v13 := vals[13]
	v46 := vals[46]
	v56 := vals[56]
	v68 := vals[68]
	v80 := vals[80]
	v92 := vals[92]
	v104 := vals[104]
	v117 := vals[117]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v10 {
		case 0x0:
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			v19 := v18
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			n0 := v37
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			v0 = n0
			v10 = 0x1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
		case 0x1:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7fffff
			}
			v5 := v3 & 0x7f
			v19 := v5
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			n0 := v37
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			v0 = n0
			v10 = 0x2
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
		case 0x2:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7fffff
			}
			v5 := v3 & 0x7f
			v7 := (v3 >> 7)
			v9 := v7 & 0xffff
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			var v20 uint64
			if v13 == 0x0 {
				v20 = 1
			}
			v39 := v9
			v40 := (v39 << 0) & 0xffffffffffff
			v41 := (v39 >> 0)
			v42 := (v40 | v41)
			v44 := (v42 + 0x1) & 0xffffffffffff
			v45 := (v42 * v44) & 0xffffffffffff
			v47 := (v46 + v45) & 0xffffffffffff
			v49 := (v39 << 1) & 0xffffffffffff
			v51 := (v39 >> 47)
			v52 := (v49 | v51)
			v54 := (v52 + 0x3) & 0xffffffffffff
			v55 := (v52 * v54) & 0xffffffffffff
			v57 := (v56 + v55) & 0xffffffffffff
			v59 := (v46 ^ v56)
			v61 := (v39 << 2) & 0xffffffffffff
			v63 := (v39 >> 46)
			v64 := (v61 | v63)
			v66 := (v64 + 0x5) & 0xffffffffffff
			v67 := (v64 * v66) & 0xffffffffffff
			v69 := (v68 + v67) & 0xffffffffffff
			v71 := (v59 ^ v68)
			v73 := (v39 << 3) & 0xffffffffffff
			v75 := (v39 >> 45)
			v76 := (v73 | v75)
			v78 := (v76 + 0x7) & 0xffffffffffff
			v79 := (v76 * v78) & 0xffffffffffff
			v81 := (v80 + v79) & 0xffffffffffff
			v83 := (v71 ^ v80)
			v85 := (v39 << 4) & 0xffffffffffff
			v87 := (v39 >> 44)
			v88 := (v85 | v87)
			v90 := (v88 + 0x9) & 0xffffffffffff
			v91 := (v88 * v90) & 0xffffffffffff
			v93 := (v92 + v91) & 0xffffffffffff
			v95 := (v83 ^ v92)
			v97 := (v39 << 5) & 0xffffffffffff
			v99 := (v39 >> 43)
			v100 := (v97 | v99)
			v102 := (v100 + 0xb) & 0xffffffffffff
			v103 := (v100 * v102) & 0xffffffffffff
			v105 := (v104 + v103) & 0xffffffffffff
			v107 := (v95 ^ v104)
			v108 := (v9 * v9) & 0xffffffff
			v109 := (v108 * v108) & 0xffffffff
			v110 := (v109 >> 4)
			v111 := (v110 + v108) & 0xffffffff
			v112 := (v5 + 0x1) & 0x7f
			v113 := (v111 * v112) & 0xffffffff
			v115 := v107 & 0xffffffff
			v116 := (v113 ^ v115)
			v118 := (v117 + v116) & 0xffffffff
			v19 := v18
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = 0x2
			}
			v30 := v27
			v31 := v30
			v34 := v31
			v37 := v0
			v48 := v47
			v58 := v57
			v70 := v69
			v82 := v81
			v94 := v93
			v106 := v105
			v119 := v118
			n0 := v37
			n1 := v34
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			v0 = n0
			v10 = n1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
		case 0x3:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1ff
			}
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			var v21 uint64
			if v2 <= v0 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x1
			}
			v36 := (v0 + 0x1) & 0x1ff
			v19 := v18
			v26 := v23
			v30 := v26
			v31 := v30
			v34 := v31
			v37 := v36
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
			n0 := v37
			n1 := v34
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			v0 = n0
			v10 = n1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
		case 0x4:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1ff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7fffff
			}
			v5 := v3 & 0x7f
			v7 := (v3 >> 7)
			v9 := v7 & 0xffff
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			var v20 uint64
			if v13 == 0x0 {
				v20 = 1
			}
			var v21 uint64
			if v2 <= v0 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x1
			}
			v36 := (v0 + 0x1) & 0x1ff
			v39 := v9
			v40 := (v39 << 0) & 0xffffffffffff
			v41 := (v39 >> 0)
			v42 := (v40 | v41)
			v44 := (v42 + 0x1) & 0xffffffffffff
			v45 := (v42 * v44) & 0xffffffffffff
			v47 := (v46 + v45) & 0xffffffffffff
			v49 := (v39 << 1) & 0xffffffffffff
			v51 := (v39 >> 47)
			v52 := (v49 | v51)
			v54 := (v52 + 0x3) & 0xffffffffffff
			v55 := (v52 * v54) & 0xffffffffffff
			v57 := (v56 + v55) & 0xffffffffffff
			v59 := (v46 ^ v56)
			v61 := (v39 << 2) & 0xffffffffffff
			v63 := (v39 >> 46)
			v64 := (v61 | v63)
			v66 := (v64 + 0x5) & 0xffffffffffff
			v67 := (v64 * v66) & 0xffffffffffff
			v69 := (v68 + v67) & 0xffffffffffff
			v71 := (v59 ^ v68)
			v73 := (v39 << 3) & 0xffffffffffff
			v75 := (v39 >> 45)
			v76 := (v73 | v75)
			v78 := (v76 + 0x7) & 0xffffffffffff
			v79 := (v76 * v78) & 0xffffffffffff
			v81 := (v80 + v79) & 0xffffffffffff
			v83 := (v71 ^ v80)
			v85 := (v39 << 4) & 0xffffffffffff
			v87 := (v39 >> 44)
			v88 := (v85 | v87)
			v90 := (v88 + 0x9) & 0xffffffffffff
			v91 := (v88 * v90) & 0xffffffffffff
			v93 := (v92 + v91) & 0xffffffffffff
			v95 := (v83 ^ v92)
			v97 := (v39 << 5) & 0xffffffffffff
			v99 := (v39 >> 43)
			v100 := (v97 | v99)
			v102 := (v100 + 0xb) & 0xffffffffffff
			v103 := (v100 * v102) & 0xffffffffffff
			v105 := (v104 + v103) & 0xffffffffffff
			v107 := (v95 ^ v104)
			v108 := (v9 * v9) & 0xffffffff
			v109 := (v108 * v108) & 0xffffffff
			v110 := (v109 >> 4)
			v111 := (v110 + v108) & 0xffffffff
			v112 := (v5 + 0x1) & 0x7f
			v113 := (v111 * v112) & 0xffffffff
			v115 := v107 & 0xffffffff
			v116 := (v113 ^ v115)
			v118 := (v117 + v116) & 0xffffffff
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v5
			} else {
				v19 = v18
			}
			var v25 uint64
			if v10 == 0x3 {
				v25 = 1
			}
			var v26 uint64
			if v25 != 0 {
				v26 = v23
			} else {
				v26 = v10
			}
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = v10
			}
			var v29 uint64
			if v10 == 0x2 {
				v29 = 1
			}
			var v30 uint64
			if v29 != 0 {
				v30 = v27
			} else {
				v30 = v26
			}
			var v31 uint64
			if v12 != 0 {
				v31 = 0x2
			} else {
				v31 = v30
			}
			var v33 uint64
			if v10 == 0x0 {
				v33 = 1
			}
			var v34 uint64
			if v33 != 0 {
				v34 = 0x1
			} else {
				v34 = v31
			}
			var v37 uint64
			if v25 != 0 {
				v37 = v36
			} else {
				v37 = v0
			}
			var v48 uint64
			if v29 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v58 uint64
			if v29 != 0 {
				v58 = v57
			} else {
				v58 = v56
			}
			var v70 uint64
			if v29 != 0 {
				v70 = v69
			} else {
				v70 = v68
			}
			var v82 uint64
			if v29 != 0 {
				v82 = v81
			} else {
				v82 = v80
			}
			var v94 uint64
			if v29 != 0 {
				v94 = v93
			} else {
				v94 = v92
			}
			var v106 uint64
			if v29 != 0 {
				v106 = v105
			} else {
				v106 = v104
			}
			var v119 uint64
			if v29 != 0 {
				v119 = v118
			} else {
				v119 = v117
			}
			var v120 uint64
			if v10 == 0x4 {
				v120 = 1
			}
			if v120 != 0 {
				break loop
			}
			if v25 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v117
				}
			}
			n0 := v37
			n1 := v34
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			v0 = n0
			v10 = n1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
		}
	}
	vals[0] = v0
	vals[10] = v10
	vals[13] = v13
	vals[46] = v46
	vals[56] = v56
	vals[68] = v68
	vals[80] = v80
	vals[92] = v92
	vals[104] = v104
	vals[117] = v117
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x1ff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x7fffff
	}
	vals[3] = v3
	v5 := v3 & 0x7f
	vals[5] = v5
	v7 := (v3 >> 7)
	vals[7] = v7
	v9 := v7 & 0xffff
	vals[9] = v9
	var v15 uint64
	if v13 != 0x0 {
		v15 = 1
	}
	vals[15] = v15
	v17 := (v13 - 0x1) & 0x7f
	vals[17] = v17
	var v18 uint64
	if v15 != 0 {
		v18 = v17
	} else {
		v18 = v13
	}
	vals[18] = v18
	var v20 uint64
	if v13 == 0x0 {
		v20 = 1
	}
	vals[20] = v20
	var v21 uint64
	if v2 <= v0 {
		v21 = 1
	}
	vals[21] = v21
	var v23 uint64
	if v21 != 0 {
		v23 = 0x4
	} else {
		v23 = 0x1
	}
	vals[23] = v23
	v36 := (v0 + 0x1) & 0x1ff
	vals[36] = v36
	v39 := v9
	vals[39] = v39
	v40 := (v39 << 0) & 0xffffffffffff
	vals[40] = v40
	v41 := (v39 >> 0)
	vals[41] = v41
	v42 := (v40 | v41)
	vals[42] = v42
	v44 := (v42 + 0x1) & 0xffffffffffff
	vals[44] = v44
	v45 := (v42 * v44) & 0xffffffffffff
	vals[45] = v45
	v47 := (v46 + v45) & 0xffffffffffff
	vals[47] = v47
	v49 := (v39 << 1) & 0xffffffffffff
	vals[49] = v49
	v51 := (v39 >> 47)
	vals[51] = v51
	v52 := (v49 | v51)
	vals[52] = v52
	v54 := (v52 + 0x3) & 0xffffffffffff
	vals[54] = v54
	v55 := (v52 * v54) & 0xffffffffffff
	vals[55] = v55
	v57 := (v56 + v55) & 0xffffffffffff
	vals[57] = v57
	v59 := (v46 ^ v56)
	vals[59] = v59
	v61 := (v39 << 2) & 0xffffffffffff
	vals[61] = v61
	v63 := (v39 >> 46)
	vals[63] = v63
	v64 := (v61 | v63)
	vals[64] = v64
	v66 := (v64 + 0x5) & 0xffffffffffff
	vals[66] = v66
	v67 := (v64 * v66) & 0xffffffffffff
	vals[67] = v67
	v69 := (v68 + v67) & 0xffffffffffff
	vals[69] = v69
	v71 := (v59 ^ v68)
	vals[71] = v71
	v73 := (v39 << 3) & 0xffffffffffff
	vals[73] = v73
	v75 := (v39 >> 45)
	vals[75] = v75
	v76 := (v73 | v75)
	vals[76] = v76
	v78 := (v76 + 0x7) & 0xffffffffffff
	vals[78] = v78
	v79 := (v76 * v78) & 0xffffffffffff
	vals[79] = v79
	v81 := (v80 + v79) & 0xffffffffffff
	vals[81] = v81
	v83 := (v71 ^ v80)
	vals[83] = v83
	v85 := (v39 << 4) & 0xffffffffffff
	vals[85] = v85
	v87 := (v39 >> 44)
	vals[87] = v87
	v88 := (v85 | v87)
	vals[88] = v88
	v90 := (v88 + 0x9) & 0xffffffffffff
	vals[90] = v90
	v91 := (v88 * v90) & 0xffffffffffff
	vals[91] = v91
	v93 := (v92 + v91) & 0xffffffffffff
	vals[93] = v93
	v95 := (v83 ^ v92)
	vals[95] = v95
	v97 := (v39 << 5) & 0xffffffffffff
	vals[97] = v97
	v99 := (v39 >> 43)
	vals[99] = v99
	v100 := (v97 | v99)
	vals[100] = v100
	v102 := (v100 + 0xb) & 0xffffffffffff
	vals[102] = v102
	v103 := (v100 * v102) & 0xffffffffffff
	vals[103] = v103
	v105 := (v104 + v103) & 0xffffffffffff
	vals[105] = v105
	v107 := (v95 ^ v104)
	vals[107] = v107
	v108 := (v9 * v9) & 0xffffffff
	vals[108] = v108
	v109 := (v108 * v108) & 0xffffffff
	vals[109] = v109
	v110 := (v109 >> 4)
	vals[110] = v110
	v111 := (v110 + v108) & 0xffffffff
	vals[111] = v111
	v112 := (v5 + 0x1) & 0x7f
	vals[112] = v112
	v113 := (v111 * v112) & 0xffffffff
	vals[113] = v113
	v115 := v107 & 0xffffffff
	vals[115] = v115
	v116 := (v113 ^ v115)
	vals[116] = v116
	v118 := (v117 + v116) & 0xffffffff
	vals[118] = v118
	switch v10 {
	case 0x0:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x0
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x0
		}
		vals[27] = v27
		vals[29] = 0x0
		vals[30] = 0x0
		vals[31] = 0x0
		vals[33] = 0x1
		vals[34] = 0x1
		v37 := v0
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x0
	case 0x1:
		vals[12] = 0x1
		v19 := v5
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x1
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x1
		}
		vals[27] = v27
		vals[29] = 0x0
		vals[30] = 0x1
		vals[31] = 0x2
		vals[33] = 0x0
		vals[34] = 0x2
		v37 := v0
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x0
	case 0x2:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x2
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x2
		}
		vals[27] = v27
		vals[29] = 0x1
		v30 := v27
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		vals[33] = 0x0
		v34 := v31
		vals[34] = v34
		v37 := v0
		vals[37] = v37
		v48 := v47
		vals[48] = v48
		v58 := v57
		vals[58] = v58
		v70 := v69
		vals[70] = v70
		v82 := v81
		vals[82] = v82
		v94 := v93
		vals[94] = v94
		v106 := v105
		vals[106] = v106
		v119 := v118
		vals[119] = v119
		vals[120] = 0x0
	case 0x3:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x1
		v26 := v23
		vals[26] = v26
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x3
		}
		vals[27] = v27
		vals[29] = 0x0
		v30 := v26
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		vals[33] = 0x0
		v34 := v31
		vals[34] = v34
		v37 := v36
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x0
	case 0x4:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x4
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x4
		}
		vals[27] = v27
		vals[29] = 0x0
		vals[30] = 0x4
		vals[31] = 0x4
		vals[33] = 0x0
		vals[34] = 0x4
		v37 := v0
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x1
	default:
		var v12 uint64
		if v10 == 0x1 {
			v12 = 1
		}
		vals[12] = v12
		var v19 uint64
		if v12 != 0 {
			v19 = v5
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v25 uint64
		if v10 == 0x3 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v25 != 0 {
			v26 = v23
		} else {
			v26 = v10
		}
		vals[26] = v26
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = v10
		}
		vals[27] = v27
		var v29 uint64
		if v10 == 0x2 {
			v29 = 1
		}
		vals[29] = v29
		var v30 uint64
		if v29 != 0 {
			v30 = v27
		} else {
			v30 = v26
		}
		vals[30] = v30
		var v31 uint64
		if v12 != 0 {
			v31 = 0x2
		} else {
			v31 = v30
		}
		vals[31] = v31
		var v33 uint64
		if v10 == 0x0 {
			v33 = 1
		}
		vals[33] = v33
		var v34 uint64
		if v33 != 0 {
			v34 = 0x1
		} else {
			v34 = v31
		}
		vals[34] = v34
		var v37 uint64
		if v25 != 0 {
			v37 = v36
		} else {
			v37 = v0
		}
		vals[37] = v37
		var v48 uint64
		if v29 != 0 {
			v48 = v47
		} else {
			v48 = v46
		}
		vals[48] = v48
		var v58 uint64
		if v29 != 0 {
			v58 = v57
		} else {
			v58 = v56
		}
		vals[58] = v58
		var v70 uint64
		if v29 != 0 {
			v70 = v69
		} else {
			v70 = v68
		}
		vals[70] = v70
		var v82 uint64
		if v29 != 0 {
			v82 = v81
		} else {
			v82 = v80
		}
		vals[82] = v82
		var v94 uint64
		if v29 != 0 {
			v94 = v93
		} else {
			v94 = v92
		}
		vals[94] = v94
		var v106 uint64
		if v29 != 0 {
			v106 = v105
		} else {
			v106 = v104
		}
		vals[106] = v106
		var v119 uint64
		if v29 != 0 {
			v119 = v118
		} else {
			v119 = v117
		}
		vals[119] = v119
		var v120 uint64
		if v10 == 0x4 {
			v120 = 1
		}
		vals[120] = v120
	}
	done := vals[120] != 0
	if vals[25] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[117]
		}
	}
	l0 := vals[37] & 0x1ff
	l1 := vals[34] & 0x7
	l2 := vals[19] & 0x7f
	l3 := vals[48] & 0xffffffffffff
	l4 := vals[58] & 0xffffffffffff
	l5 := vals[70] & 0xffffffffffff
	l6 := vals[82] & 0xffffffffffff
	l7 := vals[94] & 0xffffffffffff
	l8 := vals[106] & 0xffffffffffff
	l9 := vals[119] & 0xffffffff
	vals[0] = l0
	vals[10] = l1
	vals[13] = l2
	vals[46] = l3
	vals[56] = l4
	vals[68] = l5
	vals[80] = l6
	vals[92] = l7
	vals[104] = l8
	vals[117] = l9
	return cycles + 1, done
}

func step_md_ins(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[154]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v10 := vals[10]
	v13 := vals[13]
	v46 := vals[46]
	v56 := vals[56]
	v68 := vals[68]
	v80 := vals[80]
	v92 := vals[92]
	v104 := vals[104]
	v117 := vals[117]
	v124 := vals[124]
	v129 := vals[129]
	v134 := vals[134]
	v139 := vals[139]
	v143 := vals[143]
	v146 := vals[146]
	v149 := vals[149]
	v152 := vals[152]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v10 {
		case 0x0:
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			v125 := (v124 + 0x1) & 0xffffff
			v19 := v18
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			v126 := v125
			v131 := v129
			v136 := v134
			v141 := v139
			v145 := v143
			v148 := v146
			v151 := v149
			v154 := v152
			n0 := v37
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			n10 := v126
			n11 := v131
			n12 := v136
			n13 := v141
			n14 := v145
			n15 := v148
			n16 := v151
			n17 := v154
			v0 = n0
			v10 = 0x1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
			v124 = n10
			v129 = n11
			v134 = n12
			v139 = n13
			v143 = n14
			v146 = n15
			v149 = n16
			v152 = n17
		case 0x1:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7fffff
			}
			v5 := v3 & 0x7f
			v130 := (v129 + 0x1) & 0xffffff
			v147 := (v146 + 0x1) & 0xffffff
			v150 := (v149 + v5) & 0xffffff
			v153 := (v152 + v13) & 0xffffff
			v19 := v5
			v37 := v0
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			v126 := v124
			v131 := v130
			v136 := v134
			v141 := v139
			v145 := v143
			v148 := v147
			v151 := v150
			v154 := v153
			n0 := v37
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			n10 := v126
			n11 := v131
			n12 := v136
			n13 := v141
			n14 := v145
			n15 := v148
			n16 := v151
			n17 := v154
			v0 = n0
			v10 = 0x2
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
			v124 = n10
			v129 = n11
			v134 = n12
			v139 = n13
			v143 = n14
			v146 = n15
			v149 = n16
			v152 = n17
		case 0x2:
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7fffff
			}
			v5 := v3 & 0x7f
			v7 := (v3 >> 7)
			v9 := v7 & 0xffff
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			var v20 uint64
			if v13 == 0x0 {
				v20 = 1
			}
			v39 := v9
			v40 := (v39 << 0) & 0xffffffffffff
			v41 := (v39 >> 0)
			v42 := (v40 | v41)
			v44 := (v42 + 0x1) & 0xffffffffffff
			v45 := (v42 * v44) & 0xffffffffffff
			v47 := (v46 + v45) & 0xffffffffffff
			v49 := (v39 << 1) & 0xffffffffffff
			v51 := (v39 >> 47)
			v52 := (v49 | v51)
			v54 := (v52 + 0x3) & 0xffffffffffff
			v55 := (v52 * v54) & 0xffffffffffff
			v57 := (v56 + v55) & 0xffffffffffff
			v59 := (v46 ^ v56)
			v61 := (v39 << 2) & 0xffffffffffff
			v63 := (v39 >> 46)
			v64 := (v61 | v63)
			v66 := (v64 + 0x5) & 0xffffffffffff
			v67 := (v64 * v66) & 0xffffffffffff
			v69 := (v68 + v67) & 0xffffffffffff
			v71 := (v59 ^ v68)
			v73 := (v39 << 3) & 0xffffffffffff
			v75 := (v39 >> 45)
			v76 := (v73 | v75)
			v78 := (v76 + 0x7) & 0xffffffffffff
			v79 := (v76 * v78) & 0xffffffffffff
			v81 := (v80 + v79) & 0xffffffffffff
			v83 := (v71 ^ v80)
			v85 := (v39 << 4) & 0xffffffffffff
			v87 := (v39 >> 44)
			v88 := (v85 | v87)
			v90 := (v88 + 0x9) & 0xffffffffffff
			v91 := (v88 * v90) & 0xffffffffffff
			v93 := (v92 + v91) & 0xffffffffffff
			v95 := (v83 ^ v92)
			v97 := (v39 << 5) & 0xffffffffffff
			v99 := (v39 >> 43)
			v100 := (v97 | v99)
			v102 := (v100 + 0xb) & 0xffffffffffff
			v103 := (v100 * v102) & 0xffffffffffff
			v105 := (v104 + v103) & 0xffffffffffff
			v107 := (v95 ^ v104)
			v108 := (v9 * v9) & 0xffffffff
			v109 := (v108 * v108) & 0xffffffff
			v110 := (v109 >> 4)
			v111 := (v110 + v108) & 0xffffffff
			v112 := (v5 + 0x1) & 0x7f
			v113 := (v111 * v112) & 0xffffffff
			v115 := v107 & 0xffffffff
			v116 := (v113 ^ v115)
			v118 := (v117 + v116) & 0xffffffff
			v135 := (v134 + 0x1) & 0xffffff
			v19 := v18
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = 0x2
			}
			v30 := v27
			v31 := v30
			v34 := v31
			v37 := v0
			v48 := v47
			v58 := v57
			v70 := v69
			v82 := v81
			v94 := v93
			v106 := v105
			v119 := v118
			v126 := v124
			v131 := v129
			var v132 uint64
			if v34 == 0x3 {
				v132 = 1
			}
			v133 := v132
			var v136 uint64
			if v133 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			v141 := v139
			v145 := v143
			v148 := v146
			v151 := v149
			v154 := v152
			n0 := v37
			n1 := v34
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			n10 := v126
			n11 := v131
			n12 := v136
			n13 := v141
			n14 := v145
			n15 := v148
			n16 := v151
			n17 := v154
			v0 = n0
			v10 = n1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
			v124 = n10
			v129 = n11
			v134 = n12
			v139 = n13
			v143 = n14
			v146 = n15
			v149 = n16
			v152 = n17
		case 0x3:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1ff
			}
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			var v21 uint64
			if v2 <= v0 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x1
			}
			v36 := (v0 + 0x1) & 0x1ff
			v140 := (v139 + 0x1) & 0xffffff
			v144 := (v143 + 0x1) & 0xffffff
			v19 := v18
			v26 := v23
			v30 := v26
			v31 := v30
			v34 := v31
			v37 := v36
			v48 := v46
			v58 := v56
			v70 := v68
			v82 := v80
			v94 := v92
			v106 := v104
			v119 := v117
			var v121 uint64
			if v34 == 0x1 {
				v121 = 1
			}
			v126 := v124
			v131 := v129
			v136 := v134
			var v137 uint64
			if v34 == 0x4 {
				v137 = 1
			}
			v138 := v137
			var v141 uint64
			if v138 != 0 {
				v141 = v140
			} else {
				v141 = v139
			}
			v142 := v121
			var v145 uint64
			if v142 != 0 {
				v145 = v144
			} else {
				v145 = v143
			}
			v148 := v146
			v151 := v149
			v154 := v152
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v117
			}
			n0 := v37
			n1 := v34
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			n10 := v126
			n11 := v131
			n12 := v136
			n13 := v141
			n14 := v145
			n15 := v148
			n16 := v151
			n17 := v154
			v0 = n0
			v10 = n1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
			v124 = n10
			v129 = n11
			v134 = n12
			v139 = n13
			v143 = n14
			v146 = n15
			v149 = n16
			v152 = n17
		case 0x4:
			break loop
		default:
			var v2 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v2 = m0[addr] & 0x1ff
			}
			var v3 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v3 = m0[addr] & 0x7fffff
			}
			v5 := v3 & 0x7f
			v7 := (v3 >> 7)
			v9 := v7 & 0xffff
			var v15 uint64
			if v13 != 0x0 {
				v15 = 1
			}
			v17 := (v13 - 0x1) & 0x7f
			var v18 uint64
			if v15 != 0 {
				v18 = v17
			} else {
				v18 = v13
			}
			var v20 uint64
			if v13 == 0x0 {
				v20 = 1
			}
			var v21 uint64
			if v2 <= v0 {
				v21 = 1
			}
			var v23 uint64
			if v21 != 0 {
				v23 = 0x4
			} else {
				v23 = 0x1
			}
			v36 := (v0 + 0x1) & 0x1ff
			v39 := v9
			v40 := (v39 << 0) & 0xffffffffffff
			v41 := (v39 >> 0)
			v42 := (v40 | v41)
			v44 := (v42 + 0x1) & 0xffffffffffff
			v45 := (v42 * v44) & 0xffffffffffff
			v47 := (v46 + v45) & 0xffffffffffff
			v49 := (v39 << 1) & 0xffffffffffff
			v51 := (v39 >> 47)
			v52 := (v49 | v51)
			v54 := (v52 + 0x3) & 0xffffffffffff
			v55 := (v52 * v54) & 0xffffffffffff
			v57 := (v56 + v55) & 0xffffffffffff
			v59 := (v46 ^ v56)
			v61 := (v39 << 2) & 0xffffffffffff
			v63 := (v39 >> 46)
			v64 := (v61 | v63)
			v66 := (v64 + 0x5) & 0xffffffffffff
			v67 := (v64 * v66) & 0xffffffffffff
			v69 := (v68 + v67) & 0xffffffffffff
			v71 := (v59 ^ v68)
			v73 := (v39 << 3) & 0xffffffffffff
			v75 := (v39 >> 45)
			v76 := (v73 | v75)
			v78 := (v76 + 0x7) & 0xffffffffffff
			v79 := (v76 * v78) & 0xffffffffffff
			v81 := (v80 + v79) & 0xffffffffffff
			v83 := (v71 ^ v80)
			v85 := (v39 << 4) & 0xffffffffffff
			v87 := (v39 >> 44)
			v88 := (v85 | v87)
			v90 := (v88 + 0x9) & 0xffffffffffff
			v91 := (v88 * v90) & 0xffffffffffff
			v93 := (v92 + v91) & 0xffffffffffff
			v95 := (v83 ^ v92)
			v97 := (v39 << 5) & 0xffffffffffff
			v99 := (v39 >> 43)
			v100 := (v97 | v99)
			v102 := (v100 + 0xb) & 0xffffffffffff
			v103 := (v100 * v102) & 0xffffffffffff
			v105 := (v104 + v103) & 0xffffffffffff
			v107 := (v95 ^ v104)
			v108 := (v9 * v9) & 0xffffffff
			v109 := (v108 * v108) & 0xffffffff
			v110 := (v109 >> 4)
			v111 := (v110 + v108) & 0xffffffff
			v112 := (v5 + 0x1) & 0x7f
			v113 := (v111 * v112) & 0xffffffff
			v115 := v107 & 0xffffffff
			v116 := (v113 ^ v115)
			v118 := (v117 + v116) & 0xffffffff
			v125 := (v124 + 0x1) & 0xffffff
			v130 := (v129 + 0x1) & 0xffffff
			v135 := (v134 + 0x1) & 0xffffff
			v140 := (v139 + 0x1) & 0xffffff
			v144 := (v143 + 0x1) & 0xffffff
			v147 := (v146 + 0x1) & 0xffffff
			v150 := (v149 + v5) & 0xffffff
			v153 := (v152 + v13) & 0xffffff
			var v12 uint64
			if v10 == 0x1 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v5
			} else {
				v19 = v18
			}
			var v25 uint64
			if v10 == 0x3 {
				v25 = 1
			}
			var v26 uint64
			if v25 != 0 {
				v26 = v23
			} else {
				v26 = v10
			}
			var v27 uint64
			if v20 != 0 {
				v27 = 0x3
			} else {
				v27 = v10
			}
			var v29 uint64
			if v10 == 0x2 {
				v29 = 1
			}
			var v30 uint64
			if v29 != 0 {
				v30 = v27
			} else {
				v30 = v26
			}
			var v31 uint64
			if v12 != 0 {
				v31 = 0x2
			} else {
				v31 = v30
			}
			var v33 uint64
			if v10 == 0x0 {
				v33 = 1
			}
			var v34 uint64
			if v33 != 0 {
				v34 = 0x1
			} else {
				v34 = v31
			}
			var v37 uint64
			if v25 != 0 {
				v37 = v36
			} else {
				v37 = v0
			}
			var v48 uint64
			if v29 != 0 {
				v48 = v47
			} else {
				v48 = v46
			}
			var v58 uint64
			if v29 != 0 {
				v58 = v57
			} else {
				v58 = v56
			}
			var v70 uint64
			if v29 != 0 {
				v70 = v69
			} else {
				v70 = v68
			}
			var v82 uint64
			if v29 != 0 {
				v82 = v81
			} else {
				v82 = v80
			}
			var v94 uint64
			if v29 != 0 {
				v94 = v93
			} else {
				v94 = v92
			}
			var v106 uint64
			if v29 != 0 {
				v106 = v105
			} else {
				v106 = v104
			}
			var v119 uint64
			if v29 != 0 {
				v119 = v118
			} else {
				v119 = v117
			}
			var v120 uint64
			if v10 == 0x4 {
				v120 = 1
			}
			var v121 uint64
			if v34 == 0x1 {
				v121 = 1
			}
			v122 := v33 & v121
			var v126 uint64
			if v122 != 0 {
				v126 = v125
			} else {
				v126 = v124
			}
			var v127 uint64
			if v34 == 0x2 {
				v127 = 1
			}
			v128 := v12 & v127
			var v131 uint64
			if v128 != 0 {
				v131 = v130
			} else {
				v131 = v129
			}
			var v132 uint64
			if v34 == 0x3 {
				v132 = 1
			}
			v133 := v29 & v132
			var v136 uint64
			if v133 != 0 {
				v136 = v135
			} else {
				v136 = v134
			}
			var v137 uint64
			if v34 == 0x4 {
				v137 = 1
			}
			v138 := v25 & v137
			var v141 uint64
			if v138 != 0 {
				v141 = v140
			} else {
				v141 = v139
			}
			v142 := v25 & v121
			var v145 uint64
			if v142 != 0 {
				v145 = v144
			} else {
				v145 = v143
			}
			var v148 uint64
			if v12 != 0 {
				v148 = v147
			} else {
				v148 = v146
			}
			var v151 uint64
			if v12 != 0 {
				v151 = v150
			} else {
				v151 = v149
			}
			var v154 uint64
			if v12 != 0 {
				v154 = v153
			} else {
				v154 = v152
			}
			if v120 != 0 {
				break loop
			}
			if v25 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v117
				}
			}
			n0 := v37
			n1 := v34
			n2 := v19
			n3 := v48
			n4 := v58
			n5 := v70
			n6 := v82
			n7 := v94
			n8 := v106
			n9 := v119
			n10 := v126
			n11 := v131
			n12 := v136
			n13 := v141
			n14 := v145
			n15 := v148
			n16 := v151
			n17 := v154
			v0 = n0
			v10 = n1
			v13 = n2
			v46 = n3
			v56 = n4
			v68 = n5
			v80 = n6
			v92 = n7
			v104 = n8
			v117 = n9
			v124 = n10
			v129 = n11
			v134 = n12
			v139 = n13
			v143 = n14
			v146 = n15
			v149 = n16
			v152 = n17
		}
	}
	vals[0] = v0
	vals[10] = v10
	vals[13] = v13
	vals[46] = v46
	vals[56] = v56
	vals[68] = v68
	vals[80] = v80
	vals[92] = v92
	vals[104] = v104
	vals[117] = v117
	vals[124] = v124
	vals[129] = v129
	vals[134] = v134
	vals[139] = v139
	vals[143] = v143
	vals[146] = v146
	vals[149] = v149
	vals[152] = v152
	var v2 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v2 = m0[addr] & 0x1ff
	}
	vals[2] = v2
	var v3 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v3 = m0[addr] & 0x7fffff
	}
	vals[3] = v3
	v5 := v3 & 0x7f
	vals[5] = v5
	v7 := (v3 >> 7)
	vals[7] = v7
	v9 := v7 & 0xffff
	vals[9] = v9
	var v15 uint64
	if v13 != 0x0 {
		v15 = 1
	}
	vals[15] = v15
	v17 := (v13 - 0x1) & 0x7f
	vals[17] = v17
	var v18 uint64
	if v15 != 0 {
		v18 = v17
	} else {
		v18 = v13
	}
	vals[18] = v18
	var v20 uint64
	if v13 == 0x0 {
		v20 = 1
	}
	vals[20] = v20
	var v21 uint64
	if v2 <= v0 {
		v21 = 1
	}
	vals[21] = v21
	var v23 uint64
	if v21 != 0 {
		v23 = 0x4
	} else {
		v23 = 0x1
	}
	vals[23] = v23
	v36 := (v0 + 0x1) & 0x1ff
	vals[36] = v36
	v39 := v9
	vals[39] = v39
	v40 := (v39 << 0) & 0xffffffffffff
	vals[40] = v40
	v41 := (v39 >> 0)
	vals[41] = v41
	v42 := (v40 | v41)
	vals[42] = v42
	v44 := (v42 + 0x1) & 0xffffffffffff
	vals[44] = v44
	v45 := (v42 * v44) & 0xffffffffffff
	vals[45] = v45
	v47 := (v46 + v45) & 0xffffffffffff
	vals[47] = v47
	v49 := (v39 << 1) & 0xffffffffffff
	vals[49] = v49
	v51 := (v39 >> 47)
	vals[51] = v51
	v52 := (v49 | v51)
	vals[52] = v52
	v54 := (v52 + 0x3) & 0xffffffffffff
	vals[54] = v54
	v55 := (v52 * v54) & 0xffffffffffff
	vals[55] = v55
	v57 := (v56 + v55) & 0xffffffffffff
	vals[57] = v57
	v59 := (v46 ^ v56)
	vals[59] = v59
	v61 := (v39 << 2) & 0xffffffffffff
	vals[61] = v61
	v63 := (v39 >> 46)
	vals[63] = v63
	v64 := (v61 | v63)
	vals[64] = v64
	v66 := (v64 + 0x5) & 0xffffffffffff
	vals[66] = v66
	v67 := (v64 * v66) & 0xffffffffffff
	vals[67] = v67
	v69 := (v68 + v67) & 0xffffffffffff
	vals[69] = v69
	v71 := (v59 ^ v68)
	vals[71] = v71
	v73 := (v39 << 3) & 0xffffffffffff
	vals[73] = v73
	v75 := (v39 >> 45)
	vals[75] = v75
	v76 := (v73 | v75)
	vals[76] = v76
	v78 := (v76 + 0x7) & 0xffffffffffff
	vals[78] = v78
	v79 := (v76 * v78) & 0xffffffffffff
	vals[79] = v79
	v81 := (v80 + v79) & 0xffffffffffff
	vals[81] = v81
	v83 := (v71 ^ v80)
	vals[83] = v83
	v85 := (v39 << 4) & 0xffffffffffff
	vals[85] = v85
	v87 := (v39 >> 44)
	vals[87] = v87
	v88 := (v85 | v87)
	vals[88] = v88
	v90 := (v88 + 0x9) & 0xffffffffffff
	vals[90] = v90
	v91 := (v88 * v90) & 0xffffffffffff
	vals[91] = v91
	v93 := (v92 + v91) & 0xffffffffffff
	vals[93] = v93
	v95 := (v83 ^ v92)
	vals[95] = v95
	v97 := (v39 << 5) & 0xffffffffffff
	vals[97] = v97
	v99 := (v39 >> 43)
	vals[99] = v99
	v100 := (v97 | v99)
	vals[100] = v100
	v102 := (v100 + 0xb) & 0xffffffffffff
	vals[102] = v102
	v103 := (v100 * v102) & 0xffffffffffff
	vals[103] = v103
	v105 := (v104 + v103) & 0xffffffffffff
	vals[105] = v105
	v107 := (v95 ^ v104)
	vals[107] = v107
	v108 := (v9 * v9) & 0xffffffff
	vals[108] = v108
	v109 := (v108 * v108) & 0xffffffff
	vals[109] = v109
	v110 := (v109 >> 4)
	vals[110] = v110
	v111 := (v110 + v108) & 0xffffffff
	vals[111] = v111
	v112 := (v5 + 0x1) & 0x7f
	vals[112] = v112
	v113 := (v111 * v112) & 0xffffffff
	vals[113] = v113
	v115 := v107 & 0xffffffff
	vals[115] = v115
	v116 := (v113 ^ v115)
	vals[116] = v116
	v118 := (v117 + v116) & 0xffffffff
	vals[118] = v118
	v125 := (v124 + 0x1) & 0xffffff
	vals[125] = v125
	v130 := (v129 + 0x1) & 0xffffff
	vals[130] = v130
	v135 := (v134 + 0x1) & 0xffffff
	vals[135] = v135
	v140 := (v139 + 0x1) & 0xffffff
	vals[140] = v140
	v144 := (v143 + 0x1) & 0xffffff
	vals[144] = v144
	v147 := (v146 + 0x1) & 0xffffff
	vals[147] = v147
	v150 := (v149 + v5) & 0xffffff
	vals[150] = v150
	v153 := (v152 + v13) & 0xffffff
	vals[153] = v153
	switch v10 {
	case 0x0:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x0
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x0
		}
		vals[27] = v27
		vals[29] = 0x0
		vals[30] = 0x0
		vals[31] = 0x0
		vals[33] = 0x1
		vals[34] = 0x1
		v37 := v0
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x0
		vals[121] = 0x1
		vals[122] = 0x1
		v126 := v125
		vals[126] = v126
		vals[127] = 0x0
		vals[128] = 0x0
		v131 := v129
		vals[131] = v131
		vals[132] = 0x0
		vals[133] = 0x0
		v136 := v134
		vals[136] = v136
		vals[137] = 0x0
		vals[138] = 0x0
		v141 := v139
		vals[141] = v141
		vals[142] = 0x0
		v145 := v143
		vals[145] = v145
		v148 := v146
		vals[148] = v148
		v151 := v149
		vals[151] = v151
		v154 := v152
		vals[154] = v154
	case 0x1:
		vals[12] = 0x1
		v19 := v5
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x1
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x1
		}
		vals[27] = v27
		vals[29] = 0x0
		vals[30] = 0x1
		vals[31] = 0x2
		vals[33] = 0x0
		vals[34] = 0x2
		v37 := v0
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x0
		vals[121] = 0x0
		vals[122] = 0x0
		v126 := v124
		vals[126] = v126
		vals[127] = 0x1
		vals[128] = 0x1
		v131 := v130
		vals[131] = v131
		vals[132] = 0x0
		vals[133] = 0x0
		v136 := v134
		vals[136] = v136
		vals[137] = 0x0
		vals[138] = 0x0
		v141 := v139
		vals[141] = v141
		vals[142] = 0x0
		v145 := v143
		vals[145] = v145
		v148 := v147
		vals[148] = v148
		v151 := v150
		vals[151] = v151
		v154 := v153
		vals[154] = v154
	case 0x2:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x2
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x2
		}
		vals[27] = v27
		vals[29] = 0x1
		v30 := v27
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		vals[33] = 0x0
		v34 := v31
		vals[34] = v34
		v37 := v0
		vals[37] = v37
		v48 := v47
		vals[48] = v48
		v58 := v57
		vals[58] = v58
		v70 := v69
		vals[70] = v70
		v82 := v81
		vals[82] = v82
		v94 := v93
		vals[94] = v94
		v106 := v105
		vals[106] = v106
		v119 := v118
		vals[119] = v119
		vals[120] = 0x0
		var v121 uint64
		if v34 == 0x1 {
			v121 = 1
		}
		vals[121] = v121
		vals[122] = 0x0
		v126 := v124
		vals[126] = v126
		var v127 uint64
		if v34 == 0x2 {
			v127 = 1
		}
		vals[127] = v127
		vals[128] = 0x0
		v131 := v129
		vals[131] = v131
		var v132 uint64
		if v34 == 0x3 {
			v132 = 1
		}
		vals[132] = v132
		v133 := v132
		vals[133] = v133
		var v136 uint64
		if v133 != 0 {
			v136 = v135
		} else {
			v136 = v134
		}
		vals[136] = v136
		var v137 uint64
		if v34 == 0x4 {
			v137 = 1
		}
		vals[137] = v137
		vals[138] = 0x0
		v141 := v139
		vals[141] = v141
		vals[142] = 0x0
		v145 := v143
		vals[145] = v145
		v148 := v146
		vals[148] = v148
		v151 := v149
		vals[151] = v151
		v154 := v152
		vals[154] = v154
	case 0x3:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x1
		v26 := v23
		vals[26] = v26
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x3
		}
		vals[27] = v27
		vals[29] = 0x0
		v30 := v26
		vals[30] = v30
		v31 := v30
		vals[31] = v31
		vals[33] = 0x0
		v34 := v31
		vals[34] = v34
		v37 := v36
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x0
		var v121 uint64
		if v34 == 0x1 {
			v121 = 1
		}
		vals[121] = v121
		vals[122] = 0x0
		v126 := v124
		vals[126] = v126
		var v127 uint64
		if v34 == 0x2 {
			v127 = 1
		}
		vals[127] = v127
		vals[128] = 0x0
		v131 := v129
		vals[131] = v131
		var v132 uint64
		if v34 == 0x3 {
			v132 = 1
		}
		vals[132] = v132
		vals[133] = 0x0
		v136 := v134
		vals[136] = v136
		var v137 uint64
		if v34 == 0x4 {
			v137 = 1
		}
		vals[137] = v137
		v138 := v137
		vals[138] = v138
		var v141 uint64
		if v138 != 0 {
			v141 = v140
		} else {
			v141 = v139
		}
		vals[141] = v141
		v142 := v121
		vals[142] = v142
		var v145 uint64
		if v142 != 0 {
			v145 = v144
		} else {
			v145 = v143
		}
		vals[145] = v145
		v148 := v146
		vals[148] = v148
		v151 := v149
		vals[151] = v151
		v154 := v152
		vals[154] = v154
	case 0x4:
		vals[12] = 0x0
		v19 := v18
		vals[19] = v19
		vals[25] = 0x0
		vals[26] = 0x4
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = 0x4
		}
		vals[27] = v27
		vals[29] = 0x0
		vals[30] = 0x4
		vals[31] = 0x4
		vals[33] = 0x0
		vals[34] = 0x4
		v37 := v0
		vals[37] = v37
		v48 := v46
		vals[48] = v48
		v58 := v56
		vals[58] = v58
		v70 := v68
		vals[70] = v70
		v82 := v80
		vals[82] = v82
		v94 := v92
		vals[94] = v94
		v106 := v104
		vals[106] = v106
		v119 := v117
		vals[119] = v119
		vals[120] = 0x1
		vals[121] = 0x0
		vals[122] = 0x0
		v126 := v124
		vals[126] = v126
		vals[127] = 0x0
		vals[128] = 0x0
		v131 := v129
		vals[131] = v131
		vals[132] = 0x0
		vals[133] = 0x0
		v136 := v134
		vals[136] = v136
		vals[137] = 0x1
		vals[138] = 0x0
		v141 := v139
		vals[141] = v141
		vals[142] = 0x0
		v145 := v143
		vals[145] = v145
		v148 := v146
		vals[148] = v148
		v151 := v149
		vals[151] = v151
		v154 := v152
		vals[154] = v154
	default:
		var v12 uint64
		if v10 == 0x1 {
			v12 = 1
		}
		vals[12] = v12
		var v19 uint64
		if v12 != 0 {
			v19 = v5
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v25 uint64
		if v10 == 0x3 {
			v25 = 1
		}
		vals[25] = v25
		var v26 uint64
		if v25 != 0 {
			v26 = v23
		} else {
			v26 = v10
		}
		vals[26] = v26
		var v27 uint64
		if v20 != 0 {
			v27 = 0x3
		} else {
			v27 = v10
		}
		vals[27] = v27
		var v29 uint64
		if v10 == 0x2 {
			v29 = 1
		}
		vals[29] = v29
		var v30 uint64
		if v29 != 0 {
			v30 = v27
		} else {
			v30 = v26
		}
		vals[30] = v30
		var v31 uint64
		if v12 != 0 {
			v31 = 0x2
		} else {
			v31 = v30
		}
		vals[31] = v31
		var v33 uint64
		if v10 == 0x0 {
			v33 = 1
		}
		vals[33] = v33
		var v34 uint64
		if v33 != 0 {
			v34 = 0x1
		} else {
			v34 = v31
		}
		vals[34] = v34
		var v37 uint64
		if v25 != 0 {
			v37 = v36
		} else {
			v37 = v0
		}
		vals[37] = v37
		var v48 uint64
		if v29 != 0 {
			v48 = v47
		} else {
			v48 = v46
		}
		vals[48] = v48
		var v58 uint64
		if v29 != 0 {
			v58 = v57
		} else {
			v58 = v56
		}
		vals[58] = v58
		var v70 uint64
		if v29 != 0 {
			v70 = v69
		} else {
			v70 = v68
		}
		vals[70] = v70
		var v82 uint64
		if v29 != 0 {
			v82 = v81
		} else {
			v82 = v80
		}
		vals[82] = v82
		var v94 uint64
		if v29 != 0 {
			v94 = v93
		} else {
			v94 = v92
		}
		vals[94] = v94
		var v106 uint64
		if v29 != 0 {
			v106 = v105
		} else {
			v106 = v104
		}
		vals[106] = v106
		var v119 uint64
		if v29 != 0 {
			v119 = v118
		} else {
			v119 = v117
		}
		vals[119] = v119
		var v120 uint64
		if v10 == 0x4 {
			v120 = 1
		}
		vals[120] = v120
		var v121 uint64
		if v34 == 0x1 {
			v121 = 1
		}
		vals[121] = v121
		v122 := v33 & v121
		vals[122] = v122
		var v126 uint64
		if v122 != 0 {
			v126 = v125
		} else {
			v126 = v124
		}
		vals[126] = v126
		var v127 uint64
		if v34 == 0x2 {
			v127 = 1
		}
		vals[127] = v127
		v128 := v12 & v127
		vals[128] = v128
		var v131 uint64
		if v128 != 0 {
			v131 = v130
		} else {
			v131 = v129
		}
		vals[131] = v131
		var v132 uint64
		if v34 == 0x3 {
			v132 = 1
		}
		vals[132] = v132
		v133 := v29 & v132
		vals[133] = v133
		var v136 uint64
		if v133 != 0 {
			v136 = v135
		} else {
			v136 = v134
		}
		vals[136] = v136
		var v137 uint64
		if v34 == 0x4 {
			v137 = 1
		}
		vals[137] = v137
		v138 := v25 & v137
		vals[138] = v138
		var v141 uint64
		if v138 != 0 {
			v141 = v140
		} else {
			v141 = v139
		}
		vals[141] = v141
		v142 := v25 & v121
		vals[142] = v142
		var v145 uint64
		if v142 != 0 {
			v145 = v144
		} else {
			v145 = v143
		}
		vals[145] = v145
		var v148 uint64
		if v12 != 0 {
			v148 = v147
		} else {
			v148 = v146
		}
		vals[148] = v148
		var v151 uint64
		if v12 != 0 {
			v151 = v150
		} else {
			v151 = v149
		}
		vals[151] = v151
		var v154 uint64
		if v12 != 0 {
			v154 = v153
		} else {
			v154 = v152
		}
		vals[154] = v154
	}
	done := vals[120] != 0
	if vals[25] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[117]
		}
	}
	l0 := vals[37] & 0x1ff
	l1 := vals[34] & 0x7
	l2 := vals[19] & 0x7f
	l3 := vals[48] & 0xffffffffffff
	l4 := vals[58] & 0xffffffffffff
	l5 := vals[70] & 0xffffffffffff
	l6 := vals[82] & 0xffffffffffff
	l7 := vals[94] & 0xffffffffffff
	l8 := vals[106] & 0xffffffffffff
	l9 := vals[119] & 0xffffffff
	l10 := vals[126] & 0xffffff
	l11 := vals[131] & 0xffffff
	l12 := vals[136] & 0xffffff
	l13 := vals[141] & 0xffffff
	l14 := vals[145] & 0xffffff
	l15 := vals[148] & 0xffffff
	l16 := vals[151] & 0xffffff
	l17 := vals[154] & 0xffffff
	vals[0] = l0
	vals[10] = l1
	vals[13] = l2
	vals[46] = l3
	vals[56] = l4
	vals[68] = l5
	vals[80] = l6
	vals[92] = l7
	vals[104] = l8
	vals[117] = l9
	vals[124] = l10
	vals[129] = l11
	vals[134] = l12
	vals[139] = l13
	vals[143] = l14
	vals[146] = l15
	vals[149] = l16
	vals[152] = l17
	return cycles + 1, done
}

func step_md_pruned(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[136]
	m0 := mems[0]
	m1 := mems[1]
	v0 := vals[0]
	v1 := vals[1]
	v13 := vals[13]
	v34 := vals[34]
	v46 := vals[46]
	v53 := vals[53]
	v61 := vals[61]
	v69 := vals[69]
	v77 := vals[77]
	v85 := vals[85]
	v102 := vals[102]
	v108 := vals[108]
	v113 := vals[113]
	v118 := vals[118]
	v123 := vals[123]
	v127 := vals[127]
	v130 := vals[130]
	v133 := vals[133]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v1 {
		case 0x0:
			var v29 uint64
			if v13 != 0x0 {
				v29 = 1
			}
			v31 := (v13 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v13
			}
			v106 := (v102 + 0x1) & 0xffffff
			v6 := v0
			v33 := v32
			v45 := v34
			v52 := v46
			v60 := v53
			v68 := v61
			v76 := v69
			v84 := v77
			v101 := v85
			v107 := v106
			v112 := v108
			v117 := v113
			v122 := v118
			v126 := v123
			v129 := v127
			v132 := v130
			v135 := v133
			n0 := v6
			n2 := v33
			n3 := v45
			n4 := v52
			n5 := v60
			n6 := v68
			n7 := v76
			n8 := v84
			n9 := v101
			n10 := v107
			n11 := v112
			n12 := v117
			n13 := v122
			n14 := v126
			n15 := v129
			n16 := v132
			n17 := v135
			v0 = n0
			v1 = 0x1
			v13 = n2
			v34 = n3
			v46 = n4
			v53 = n5
			v61 = n6
			v69 = n7
			v77 = n8
			v85 = n9
			v102 = n10
			v108 = n11
			v113 = n12
			v118 = n13
			v123 = n14
			v127 = n15
			v130 = n16
			v133 = n17
		case 0x1:
			var v26 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7fffff
			}
			v28 := v26 & 0x7f
			v111 := (v108 + 0x1) & 0xffffff
			v128 := (v127 + 0x1) & 0xffffff
			v131 := (v130 + v28) & 0xffffff
			v134 := (v133 + v13) & 0xffffff
			v6 := v0
			v33 := v28
			v45 := v34
			v52 := v46
			v60 := v53
			v68 := v61
			v76 := v69
			v84 := v77
			v101 := v85
			v107 := v102
			v112 := v111
			v117 := v113
			v122 := v118
			v126 := v123
			v129 := v128
			v132 := v131
			v135 := v134
			n0 := v6
			n2 := v33
			n3 := v45
			n4 := v52
			n5 := v60
			n6 := v68
			n7 := v76
			n8 := v84
			n9 := v101
			n10 := v107
			n11 := v112
			n12 := v117
			n13 := v122
			n14 := v126
			n15 := v129
			n16 := v132
			n17 := v135
			v0 = n0
			v1 = 0x2
			v13 = n2
			v34 = n3
			v46 = n4
			v53 = n5
			v61 = n6
			v69 = n7
			v77 = n8
			v85 = n9
			v102 = n10
			v108 = n11
			v113 = n12
			v118 = n13
			v123 = n14
			v127 = n15
			v130 = n16
			v133 = n17
		case 0x2:
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v26 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7fffff
			}
			v28 := v26 & 0x7f
			var v29 uint64
			if v13 != 0x0 {
				v29 = 1
			}
			v31 := (v13 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v13
			}
			v36 := (v26 >> 7)
			v38 := v36 & 0xffff
			v40 := v38
			v42 := (v40 + 0x1) & 0xffffffffffff
			v43 := (v40 * v42) & 0xffffffffffff
			v44 := (v34 + v43) & 0xffffffffffff
			v47 := (v40 << 1) & 0xffffffffffff
			v49 := (v47 + 0x3) & 0xffffffffffff
			v50 := (v47 * v49) & 0xffffffffffff
			v51 := (v46 + v50) & 0xffffffffffff
			v55 := (v40 << 2) & 0xffffffffffff
			v57 := (v55 + 0x5) & 0xffffffffffff
			v58 := (v55 * v57) & 0xffffffffffff
			v59 := (v53 + v58) & 0xffffffffffff
			v63 := (v40 << 3) & 0xffffffffffff
			v65 := (v63 + 0x7) & 0xffffffffffff
			v66 := (v63 * v65) & 0xffffffffffff
			v67 := (v61 + v66) & 0xffffffffffff
			v71 := (v40 << 4) & 0xffffffffffff
			v73 := (v71 + 0x9) & 0xffffffffffff
			v74 := (v71 * v73) & 0xffffffffffff
			v75 := (v69 + v74) & 0xffffffffffff
			v79 := (v40 << 5) & 0xffffffffffff
			v81 := (v79 + 0xb) & 0xffffffffffff
			v82 := (v79 * v81) & 0xffffffffffff
			v83 := (v77 + v82) & 0xffffffffffff
			v86 := (v38 * v38) & 0xffffffff
			v87 := (v86 * v86) & 0xffffffff
			v88 := (v87 >> 4)
			v89 := (v88 + v86) & 0xffffffff
			v90 := (v28 + 0x1) & 0x7f
			v91 := (v89 * v90) & 0xffffffff
			v92 := (v34 ^ v46)
			v93 := (v92 ^ v53)
			v94 := (v93 ^ v61)
			v95 := (v94 ^ v69)
			v96 := (v95 ^ v77)
			v98 := v96 & 0xffffffff
			v99 := (v91 ^ v98)
			v100 := (v85 + v99) & 0xffffffff
			v116 := (v113 + 0x1) & 0xffffff
			v6 := v0
			var v16 uint64
			if v15 != 0 {
				v16 = 0x3
			} else {
				v16 = 0x2
			}
			v23 := v16
			v24 := v23
			v25 := v24
			v33 := v32
			v45 := v44
			v52 := v51
			v60 := v59
			v68 := v67
			v76 := v75
			v84 := v83
			v101 := v100
			v107 := v102
			v112 := v108
			var v114 uint64
			if v25 == 0x3 {
				v114 = 1
			}
			v115 := v114
			var v117 uint64
			if v115 != 0 {
				v117 = v116
			} else {
				v117 = v113
			}
			v122 := v118
			v126 := v123
			v129 := v127
			v132 := v130
			v135 := v133
			n0 := v6
			n1 := v25
			n2 := v33
			n3 := v45
			n4 := v52
			n5 := v60
			n6 := v68
			n7 := v76
			n8 := v84
			n9 := v101
			n10 := v107
			n11 := v112
			n12 := v117
			n13 := v122
			n14 := v126
			n15 := v129
			n16 := v132
			n17 := v135
			v0 = n0
			v1 = n1
			v13 = n2
			v34 = n3
			v46 = n4
			v53 = n5
			v61 = n6
			v69 = n7
			v77 = n8
			v85 = n9
			v102 = n10
			v108 = n11
			v113 = n12
			v118 = n13
			v123 = n14
			v127 = n15
			v130 = n16
			v133 = n17
		case 0x3:
			v5 := (v0 + 0x1) & 0x1ff
			var v18 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v18 = m0[addr] & 0x1ff
			}
			var v19 uint64
			if v18 <= v0 {
				v19 = 1
			}
			var v21 uint64
			if v19 != 0 {
				v21 = 0x4
			} else {
				v21 = 0x1
			}
			var v29 uint64
			if v13 != 0x0 {
				v29 = 1
			}
			v31 := (v13 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v13
			}
			v121 := (v118 + 0x1) & 0xffffff
			v125 := (v123 + 0x1) & 0xffffff
			v6 := v5
			v22 := v21
			v23 := v22
			v24 := v23
			v25 := v24
			v33 := v32
			v45 := v34
			v52 := v46
			v60 := v53
			v68 := v61
			v76 := v69
			v84 := v77
			v101 := v85
			var v103 uint64
			if v25 == 0x1 {
				v103 = 1
			}
			v107 := v102
			v112 := v108
			v117 := v113
			var v119 uint64
			if v25 == 0x4 {
				v119 = 1
			}
			v120 := v119
			var v122 uint64
			if v120 != 0 {
				v122 = v121
			} else {
				v122 = v118
			}
			v124 := v103
			var v126 uint64
			if v124 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			v129 := v127
			v132 := v130
			v135 := v133
			if addr := uint64(v0); addr < uint64(len(m1)) {
				m1[addr] = v85
			}
			n0 := v6
			n1 := v25
			n2 := v33
			n3 := v45
			n4 := v52
			n5 := v60
			n6 := v68
			n7 := v76
			n8 := v84
			n9 := v101
			n10 := v107
			n11 := v112
			n12 := v117
			n13 := v122
			n14 := v126
			n15 := v129
			n16 := v132
			n17 := v135
			v0 = n0
			v1 = n1
			v13 = n2
			v34 = n3
			v46 = n4
			v53 = n5
			v61 = n6
			v69 = n7
			v77 = n8
			v85 = n9
			v102 = n10
			v108 = n11
			v113 = n12
			v118 = n13
			v123 = n14
			v127 = n15
			v130 = n16
			v133 = n17
		case 0x4:
			break loop
		default:
			v5 := (v0 + 0x1) & 0x1ff
			var v15 uint64
			if v13 == 0x0 {
				v15 = 1
			}
			var v18 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v18 = m0[addr] & 0x1ff
			}
			var v19 uint64
			if v18 <= v0 {
				v19 = 1
			}
			var v21 uint64
			if v19 != 0 {
				v21 = 0x4
			} else {
				v21 = 0x1
			}
			var v26 uint64
			if addr := uint64(v0); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7fffff
			}
			v28 := v26 & 0x7f
			var v29 uint64
			if v13 != 0x0 {
				v29 = 1
			}
			v31 := (v13 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v13
			}
			v36 := (v26 >> 7)
			v38 := v36 & 0xffff
			v40 := v38
			v42 := (v40 + 0x1) & 0xffffffffffff
			v43 := (v40 * v42) & 0xffffffffffff
			v44 := (v34 + v43) & 0xffffffffffff
			v47 := (v40 << 1) & 0xffffffffffff
			v49 := (v47 + 0x3) & 0xffffffffffff
			v50 := (v47 * v49) & 0xffffffffffff
			v51 := (v46 + v50) & 0xffffffffffff
			v55 := (v40 << 2) & 0xffffffffffff
			v57 := (v55 + 0x5) & 0xffffffffffff
			v58 := (v55 * v57) & 0xffffffffffff
			v59 := (v53 + v58) & 0xffffffffffff
			v63 := (v40 << 3) & 0xffffffffffff
			v65 := (v63 + 0x7) & 0xffffffffffff
			v66 := (v63 * v65) & 0xffffffffffff
			v67 := (v61 + v66) & 0xffffffffffff
			v71 := (v40 << 4) & 0xffffffffffff
			v73 := (v71 + 0x9) & 0xffffffffffff
			v74 := (v71 * v73) & 0xffffffffffff
			v75 := (v69 + v74) & 0xffffffffffff
			v79 := (v40 << 5) & 0xffffffffffff
			v81 := (v79 + 0xb) & 0xffffffffffff
			v82 := (v79 * v81) & 0xffffffffffff
			v83 := (v77 + v82) & 0xffffffffffff
			v86 := (v38 * v38) & 0xffffffff
			v87 := (v86 * v86) & 0xffffffff
			v88 := (v87 >> 4)
			v89 := (v88 + v86) & 0xffffffff
			v90 := (v28 + 0x1) & 0x7f
			v91 := (v89 * v90) & 0xffffffff
			v92 := (v34 ^ v46)
			v93 := (v92 ^ v53)
			v94 := (v93 ^ v61)
			v95 := (v94 ^ v69)
			v96 := (v95 ^ v77)
			v98 := v96 & 0xffffffff
			v99 := (v91 ^ v98)
			v100 := (v85 + v99) & 0xffffffff
			v106 := (v102 + 0x1) & 0xffffff
			v111 := (v108 + 0x1) & 0xffffff
			v116 := (v113 + 0x1) & 0xffffff
			v121 := (v118 + 0x1) & 0xffffff
			v125 := (v123 + 0x1) & 0xffffff
			v128 := (v127 + 0x1) & 0xffffff
			v131 := (v130 + v28) & 0xffffff
			v134 := (v133 + v13) & 0xffffff
			var v3 uint64
			if v1 == 0x3 {
				v3 = 1
			}
			var v6 uint64
			if v3 != 0 {
				v6 = v5
			} else {
				v6 = v0
			}
			var v8 uint64
			if v1 == 0x0 {
				v8 = 1
			}
			var v10 uint64
			if v1 == 0x1 {
				v10 = 1
			}
			var v12 uint64
			if v1 == 0x2 {
				v12 = 1
			}
			var v16 uint64
			if v15 != 0 {
				v16 = 0x3
			} else {
				v16 = v1
			}
			var v22 uint64
			if v3 != 0 {
				v22 = v21
			} else {
				v22 = v1
			}
			var v23 uint64
			if v12 != 0 {
				v23 = v16
			} else {
				v23 = v22
			}
			var v24 uint64
			if v10 != 0 {
				v24 = 0x2
			} else {
				v24 = v23
			}
			var v25 uint64
			if v8 != 0 {
				v25 = 0x1
			} else {
				v25 = v24
			}
			var v33 uint64
			if v10 != 0 {
				v33 = v28
			} else {
				v33 = v32
			}
			var v45 uint64
			if v12 != 0 {
				v45 = v44
			} else {
				v45 = v34
			}
			var v52 uint64
			if v12 != 0 {
				v52 = v51
			} else {
				v52 = v46
			}
			var v60 uint64
			if v12 != 0 {
				v60 = v59
			} else {
				v60 = v53
			}
			var v68 uint64
			if v12 != 0 {
				v68 = v67
			} else {
				v68 = v61
			}
			var v76 uint64
			if v12 != 0 {
				v76 = v75
			} else {
				v76 = v69
			}
			var v84 uint64
			if v12 != 0 {
				v84 = v83
			} else {
				v84 = v77
			}
			var v101 uint64
			if v12 != 0 {
				v101 = v100
			} else {
				v101 = v85
			}
			var v103 uint64
			if v25 == 0x1 {
				v103 = 1
			}
			v104 := v8 & v103
			var v107 uint64
			if v104 != 0 {
				v107 = v106
			} else {
				v107 = v102
			}
			var v109 uint64
			if v25 == 0x2 {
				v109 = 1
			}
			v110 := v10 & v109
			var v112 uint64
			if v110 != 0 {
				v112 = v111
			} else {
				v112 = v108
			}
			var v114 uint64
			if v25 == 0x3 {
				v114 = 1
			}
			v115 := v12 & v114
			var v117 uint64
			if v115 != 0 {
				v117 = v116
			} else {
				v117 = v113
			}
			var v119 uint64
			if v25 == 0x4 {
				v119 = 1
			}
			v120 := v3 & v119
			var v122 uint64
			if v120 != 0 {
				v122 = v121
			} else {
				v122 = v118
			}
			v124 := v3 & v103
			var v126 uint64
			if v124 != 0 {
				v126 = v125
			} else {
				v126 = v123
			}
			var v129 uint64
			if v10 != 0 {
				v129 = v128
			} else {
				v129 = v127
			}
			var v132 uint64
			if v10 != 0 {
				v132 = v131
			} else {
				v132 = v130
			}
			var v135 uint64
			if v10 != 0 {
				v135 = v134
			} else {
				v135 = v133
			}
			var v136 uint64
			if v1 == 0x4 {
				v136 = 1
			}
			if v136 != 0 {
				break loop
			}
			if v3 != 0 {
				if addr := uint64(v0); addr < uint64(len(m1)) {
					m1[addr] = v85
				}
			}
			n0 := v6
			n1 := v25
			n2 := v33
			n3 := v45
			n4 := v52
			n5 := v60
			n6 := v68
			n7 := v76
			n8 := v84
			n9 := v101
			n10 := v107
			n11 := v112
			n12 := v117
			n13 := v122
			n14 := v126
			n15 := v129
			n16 := v132
			n17 := v135
			v0 = n0
			v1 = n1
			v13 = n2
			v34 = n3
			v46 = n4
			v53 = n5
			v61 = n6
			v69 = n7
			v77 = n8
			v85 = n9
			v102 = n10
			v108 = n11
			v113 = n12
			v118 = n13
			v123 = n14
			v127 = n15
			v130 = n16
			v133 = n17
		}
	}
	vals[0] = v0
	vals[1] = v1
	vals[13] = v13
	vals[34] = v34
	vals[46] = v46
	vals[53] = v53
	vals[61] = v61
	vals[69] = v69
	vals[77] = v77
	vals[85] = v85
	vals[102] = v102
	vals[108] = v108
	vals[113] = v113
	vals[118] = v118
	vals[123] = v123
	vals[127] = v127
	vals[130] = v130
	vals[133] = v133
	v5 := (v0 + 0x1) & 0x1ff
	vals[5] = v5
	var v15 uint64
	if v13 == 0x0 {
		v15 = 1
	}
	vals[15] = v15
	var v18 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v18 = m0[addr] & 0x1ff
	}
	vals[18] = v18
	var v19 uint64
	if v18 <= v0 {
		v19 = 1
	}
	vals[19] = v19
	var v21 uint64
	if v19 != 0 {
		v21 = 0x4
	} else {
		v21 = 0x1
	}
	vals[21] = v21
	var v26 uint64
	if addr := uint64(v0); addr < uint64(len(m0)) {
		v26 = m0[addr] & 0x7fffff
	}
	vals[26] = v26
	v28 := v26 & 0x7f
	vals[28] = v28
	var v29 uint64
	if v13 != 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v31 := (v13 - 0x1) & 0x7f
	vals[31] = v31
	var v32 uint64
	if v29 != 0 {
		v32 = v31
	} else {
		v32 = v13
	}
	vals[32] = v32
	v36 := (v26 >> 7)
	vals[36] = v36
	v38 := v36 & 0xffff
	vals[38] = v38
	v40 := v38
	vals[40] = v40
	v42 := (v40 + 0x1) & 0xffffffffffff
	vals[42] = v42
	v43 := (v40 * v42) & 0xffffffffffff
	vals[43] = v43
	v44 := (v34 + v43) & 0xffffffffffff
	vals[44] = v44
	v47 := (v40 << 1) & 0xffffffffffff
	vals[47] = v47
	v49 := (v47 + 0x3) & 0xffffffffffff
	vals[49] = v49
	v50 := (v47 * v49) & 0xffffffffffff
	vals[50] = v50
	v51 := (v46 + v50) & 0xffffffffffff
	vals[51] = v51
	v55 := (v40 << 2) & 0xffffffffffff
	vals[55] = v55
	v57 := (v55 + 0x5) & 0xffffffffffff
	vals[57] = v57
	v58 := (v55 * v57) & 0xffffffffffff
	vals[58] = v58
	v59 := (v53 + v58) & 0xffffffffffff
	vals[59] = v59
	v63 := (v40 << 3) & 0xffffffffffff
	vals[63] = v63
	v65 := (v63 + 0x7) & 0xffffffffffff
	vals[65] = v65
	v66 := (v63 * v65) & 0xffffffffffff
	vals[66] = v66
	v67 := (v61 + v66) & 0xffffffffffff
	vals[67] = v67
	v71 := (v40 << 4) & 0xffffffffffff
	vals[71] = v71
	v73 := (v71 + 0x9) & 0xffffffffffff
	vals[73] = v73
	v74 := (v71 * v73) & 0xffffffffffff
	vals[74] = v74
	v75 := (v69 + v74) & 0xffffffffffff
	vals[75] = v75
	v79 := (v40 << 5) & 0xffffffffffff
	vals[79] = v79
	v81 := (v79 + 0xb) & 0xffffffffffff
	vals[81] = v81
	v82 := (v79 * v81) & 0xffffffffffff
	vals[82] = v82
	v83 := (v77 + v82) & 0xffffffffffff
	vals[83] = v83
	v86 := (v38 * v38) & 0xffffffff
	vals[86] = v86
	v87 := (v86 * v86) & 0xffffffff
	vals[87] = v87
	v88 := (v87 >> 4)
	vals[88] = v88
	v89 := (v88 + v86) & 0xffffffff
	vals[89] = v89
	v90 := (v28 + 0x1) & 0x7f
	vals[90] = v90
	v91 := (v89 * v90) & 0xffffffff
	vals[91] = v91
	v92 := (v34 ^ v46)
	vals[92] = v92
	v93 := (v92 ^ v53)
	vals[93] = v93
	v94 := (v93 ^ v61)
	vals[94] = v94
	v95 := (v94 ^ v69)
	vals[95] = v95
	v96 := (v95 ^ v77)
	vals[96] = v96
	v98 := v96 & 0xffffffff
	vals[98] = v98
	v99 := (v91 ^ v98)
	vals[99] = v99
	v100 := (v85 + v99) & 0xffffffff
	vals[100] = v100
	v106 := (v102 + 0x1) & 0xffffff
	vals[106] = v106
	v111 := (v108 + 0x1) & 0xffffff
	vals[111] = v111
	v116 := (v113 + 0x1) & 0xffffff
	vals[116] = v116
	v121 := (v118 + 0x1) & 0xffffff
	vals[121] = v121
	v125 := (v123 + 0x1) & 0xffffff
	vals[125] = v125
	v128 := (v127 + 0x1) & 0xffffff
	vals[128] = v128
	v131 := (v130 + v28) & 0xffffff
	vals[131] = v131
	v134 := (v133 + v13) & 0xffffff
	vals[134] = v134
	switch v1 {
	case 0x0:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x1
		vals[10] = 0x0
		vals[12] = 0x0
		var v16 uint64
		if v15 != 0 {
			v16 = 0x3
		} else {
			v16 = 0x0
		}
		vals[16] = v16
		vals[22] = 0x0
		vals[23] = 0x0
		vals[24] = 0x0
		vals[25] = 0x1
		v33 := v32
		vals[33] = v33
		v45 := v34
		vals[45] = v45
		v52 := v46
		vals[52] = v52
		v60 := v53
		vals[60] = v60
		v68 := v61
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v84 := v77
		vals[84] = v84
		v101 := v85
		vals[101] = v101
		vals[103] = 0x1
		vals[104] = 0x1
		v107 := v106
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x0
		v112 := v108
		vals[112] = v112
		vals[114] = 0x0
		vals[115] = 0x0
		v117 := v113
		vals[117] = v117
		vals[119] = 0x0
		vals[120] = 0x0
		v122 := v118
		vals[122] = v122
		vals[124] = 0x0
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		v132 := v130
		vals[132] = v132
		v135 := v133
		vals[135] = v135
		vals[136] = 0x0
	case 0x1:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x1
		vals[12] = 0x0
		var v16 uint64
		if v15 != 0 {
			v16 = 0x3
		} else {
			v16 = 0x1
		}
		vals[16] = v16
		vals[22] = 0x1
		vals[23] = 0x1
		vals[24] = 0x2
		vals[25] = 0x2
		v33 := v28
		vals[33] = v33
		v45 := v34
		vals[45] = v45
		v52 := v46
		vals[52] = v52
		v60 := v53
		vals[60] = v60
		v68 := v61
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v84 := v77
		vals[84] = v84
		v101 := v85
		vals[101] = v101
		vals[103] = 0x0
		vals[104] = 0x0
		v107 := v102
		vals[107] = v107
		vals[109] = 0x1
		vals[110] = 0x1
		v112 := v111
		vals[112] = v112
		vals[114] = 0x0
		vals[115] = 0x0
		v117 := v113
		vals[117] = v117
		vals[119] = 0x0
		vals[120] = 0x0
		v122 := v118
		vals[122] = v122
		vals[124] = 0x0
		v126 := v123
		vals[126] = v126
		v129 := v128
		vals[129] = v129
		v132 := v131
		vals[132] = v132
		v135 := v134
		vals[135] = v135
		vals[136] = 0x0
	case 0x2:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x1
		var v16 uint64
		if v15 != 0 {
			v16 = 0x3
		} else {
			v16 = 0x2
		}
		vals[16] = v16
		vals[22] = 0x2
		v23 := v16
		vals[23] = v23
		v24 := v23
		vals[24] = v24
		v25 := v24
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v45 := v44
		vals[45] = v45
		v52 := v51
		vals[52] = v52
		v60 := v59
		vals[60] = v60
		v68 := v67
		vals[68] = v68
		v76 := v75
		vals[76] = v76
		v84 := v83
		vals[84] = v84
		v101 := v100
		vals[101] = v101
		var v103 uint64
		if v25 == 0x1 {
			v103 = 1
		}
		vals[103] = v103
		vals[104] = 0x0
		v107 := v102
		vals[107] = v107
		var v109 uint64
		if v25 == 0x2 {
			v109 = 1
		}
		vals[109] = v109
		vals[110] = 0x0
		v112 := v108
		vals[112] = v112
		var v114 uint64
		if v25 == 0x3 {
			v114 = 1
		}
		vals[114] = v114
		v115 := v114
		vals[115] = v115
		var v117 uint64
		if v115 != 0 {
			v117 = v116
		} else {
			v117 = v113
		}
		vals[117] = v117
		var v119 uint64
		if v25 == 0x4 {
			v119 = 1
		}
		vals[119] = v119
		vals[120] = 0x0
		v122 := v118
		vals[122] = v122
		vals[124] = 0x0
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		v132 := v130
		vals[132] = v132
		v135 := v133
		vals[135] = v135
		vals[136] = 0x0
	case 0x3:
		vals[3] = 0x1
		v6 := v5
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v16 uint64
		if v15 != 0 {
			v16 = 0x3
		} else {
			v16 = 0x3
		}
		vals[16] = v16
		v22 := v21
		vals[22] = v22
		v23 := v22
		vals[23] = v23
		v24 := v23
		vals[24] = v24
		v25 := v24
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v45 := v34
		vals[45] = v45
		v52 := v46
		vals[52] = v52
		v60 := v53
		vals[60] = v60
		v68 := v61
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v84 := v77
		vals[84] = v84
		v101 := v85
		vals[101] = v101
		var v103 uint64
		if v25 == 0x1 {
			v103 = 1
		}
		vals[103] = v103
		vals[104] = 0x0
		v107 := v102
		vals[107] = v107
		var v109 uint64
		if v25 == 0x2 {
			v109 = 1
		}
		vals[109] = v109
		vals[110] = 0x0
		v112 := v108
		vals[112] = v112
		var v114 uint64
		if v25 == 0x3 {
			v114 = 1
		}
		vals[114] = v114
		vals[115] = 0x0
		v117 := v113
		vals[117] = v117
		var v119 uint64
		if v25 == 0x4 {
			v119 = 1
		}
		vals[119] = v119
		v120 := v119
		vals[120] = v120
		var v122 uint64
		if v120 != 0 {
			v122 = v121
		} else {
			v122 = v118
		}
		vals[122] = v122
		v124 := v103
		vals[124] = v124
		var v126 uint64
		if v124 != 0 {
			v126 = v125
		} else {
			v126 = v123
		}
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		v132 := v130
		vals[132] = v132
		v135 := v133
		vals[135] = v135
		vals[136] = 0x0
	case 0x4:
		vals[3] = 0x0
		v6 := v0
		vals[6] = v6
		vals[8] = 0x0
		vals[10] = 0x0
		vals[12] = 0x0
		var v16 uint64
		if v15 != 0 {
			v16 = 0x3
		} else {
			v16 = 0x4
		}
		vals[16] = v16
		vals[22] = 0x4
		vals[23] = 0x4
		vals[24] = 0x4
		vals[25] = 0x4
		v33 := v32
		vals[33] = v33
		v45 := v34
		vals[45] = v45
		v52 := v46
		vals[52] = v52
		v60 := v53
		vals[60] = v60
		v68 := v61
		vals[68] = v68
		v76 := v69
		vals[76] = v76
		v84 := v77
		vals[84] = v84
		v101 := v85
		vals[101] = v101
		vals[103] = 0x0
		vals[104] = 0x0
		v107 := v102
		vals[107] = v107
		vals[109] = 0x0
		vals[110] = 0x0
		v112 := v108
		vals[112] = v112
		vals[114] = 0x0
		vals[115] = 0x0
		v117 := v113
		vals[117] = v117
		vals[119] = 0x1
		vals[120] = 0x0
		v122 := v118
		vals[122] = v122
		vals[124] = 0x0
		v126 := v123
		vals[126] = v126
		v129 := v127
		vals[129] = v129
		v132 := v130
		vals[132] = v132
		v135 := v133
		vals[135] = v135
		vals[136] = 0x1
	default:
		var v3 uint64
		if v1 == 0x3 {
			v3 = 1
		}
		vals[3] = v3
		var v6 uint64
		if v3 != 0 {
			v6 = v5
		} else {
			v6 = v0
		}
		vals[6] = v6
		var v8 uint64
		if v1 == 0x0 {
			v8 = 1
		}
		vals[8] = v8
		var v10 uint64
		if v1 == 0x1 {
			v10 = 1
		}
		vals[10] = v10
		var v12 uint64
		if v1 == 0x2 {
			v12 = 1
		}
		vals[12] = v12
		var v16 uint64
		if v15 != 0 {
			v16 = 0x3
		} else {
			v16 = v1
		}
		vals[16] = v16
		var v22 uint64
		if v3 != 0 {
			v22 = v21
		} else {
			v22 = v1
		}
		vals[22] = v22
		var v23 uint64
		if v12 != 0 {
			v23 = v16
		} else {
			v23 = v22
		}
		vals[23] = v23
		var v24 uint64
		if v10 != 0 {
			v24 = 0x2
		} else {
			v24 = v23
		}
		vals[24] = v24
		var v25 uint64
		if v8 != 0 {
			v25 = 0x1
		} else {
			v25 = v24
		}
		vals[25] = v25
		var v33 uint64
		if v10 != 0 {
			v33 = v28
		} else {
			v33 = v32
		}
		vals[33] = v33
		var v45 uint64
		if v12 != 0 {
			v45 = v44
		} else {
			v45 = v34
		}
		vals[45] = v45
		var v52 uint64
		if v12 != 0 {
			v52 = v51
		} else {
			v52 = v46
		}
		vals[52] = v52
		var v60 uint64
		if v12 != 0 {
			v60 = v59
		} else {
			v60 = v53
		}
		vals[60] = v60
		var v68 uint64
		if v12 != 0 {
			v68 = v67
		} else {
			v68 = v61
		}
		vals[68] = v68
		var v76 uint64
		if v12 != 0 {
			v76 = v75
		} else {
			v76 = v69
		}
		vals[76] = v76
		var v84 uint64
		if v12 != 0 {
			v84 = v83
		} else {
			v84 = v77
		}
		vals[84] = v84
		var v101 uint64
		if v12 != 0 {
			v101 = v100
		} else {
			v101 = v85
		}
		vals[101] = v101
		var v103 uint64
		if v25 == 0x1 {
			v103 = 1
		}
		vals[103] = v103
		v104 := v8 & v103
		vals[104] = v104
		var v107 uint64
		if v104 != 0 {
			v107 = v106
		} else {
			v107 = v102
		}
		vals[107] = v107
		var v109 uint64
		if v25 == 0x2 {
			v109 = 1
		}
		vals[109] = v109
		v110 := v10 & v109
		vals[110] = v110
		var v112 uint64
		if v110 != 0 {
			v112 = v111
		} else {
			v112 = v108
		}
		vals[112] = v112
		var v114 uint64
		if v25 == 0x3 {
			v114 = 1
		}
		vals[114] = v114
		v115 := v12 & v114
		vals[115] = v115
		var v117 uint64
		if v115 != 0 {
			v117 = v116
		} else {
			v117 = v113
		}
		vals[117] = v117
		var v119 uint64
		if v25 == 0x4 {
			v119 = 1
		}
		vals[119] = v119
		v120 := v3 & v119
		vals[120] = v120
		var v122 uint64
		if v120 != 0 {
			v122 = v121
		} else {
			v122 = v118
		}
		vals[122] = v122
		v124 := v3 & v103
		vals[124] = v124
		var v126 uint64
		if v124 != 0 {
			v126 = v125
		} else {
			v126 = v123
		}
		vals[126] = v126
		var v129 uint64
		if v10 != 0 {
			v129 = v128
		} else {
			v129 = v127
		}
		vals[129] = v129
		var v132 uint64
		if v10 != 0 {
			v132 = v131
		} else {
			v132 = v130
		}
		vals[132] = v132
		var v135 uint64
		if v10 != 0 {
			v135 = v134
		} else {
			v135 = v133
		}
		vals[135] = v135
		var v136 uint64
		if v1 == 0x4 {
			v136 = 1
		}
		vals[136] = v136
	}
	done := vals[136] != 0
	if vals[3] != 0 {
		if addr := vals[0]; addr < uint64(len(m1)) {
			m1[addr] = vals[85]
		}
	}
	l0 := vals[6] & 0x1ff
	l1 := vals[25] & 0x7
	l2 := vals[33] & 0x7f
	l3 := vals[45] & 0xffffffffffff
	l4 := vals[52] & 0xffffffffffff
	l5 := vals[60] & 0xffffffffffff
	l6 := vals[68] & 0xffffffffffff
	l7 := vals[76] & 0xffffffffffff
	l8 := vals[84] & 0xffffffffffff
	l9 := vals[101] & 0xffffffff
	l10 := vals[107] & 0xffffff
	l11 := vals[112] & 0xffffff
	l12 := vals[117] & 0xffffff
	l13 := vals[122] & 0xffffff
	l14 := vals[126] & 0xffffff
	l15 := vals[129] & 0xffffff
	l16 := vals[132] & 0xffffff
	l17 := vals[135] & 0xffffff
	vals[0] = l0
	vals[1] = l1
	vals[13] = l2
	vals[34] = l3
	vals[46] = l4
	vals[53] = l5
	vals[61] = l6
	vals[69] = l7
	vals[77] = l8
	vals[85] = l9
	vals[102] = l10
	vals[108] = l11
	vals[113] = l12
	vals[118] = l13
	vals[123] = l14
	vals[127] = l15
	vals[130] = l16
	vals[133] = l17
	return cycles + 1, done
}

func step_md_cone(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[38]
	m0 := mems[0]
	v0 := vals[0]
	v7 := vals[7]
	v15 := vals[15]
	v34 := vals[34]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			v25 := v15
			v33 := v32
			v37 := v34
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = 0x1
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x1:
			var v26 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7fffff
			}
			v28 := v26 & 0x7f
			v36 := (v34 + 0x1) & 0xffffff
			v25 := v15
			v33 := v28
			v37 := v36
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = 0x2
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x2:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = 0x2
			}
			v20 := v11
			v21 := v20
			v22 := v21
			v25 := v15
			v33 := v32
			v37 := v34
			n0 := v22
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = n0
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x3:
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x1ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x4
			} else {
				v18 = 0x1
			}
			v24 := (v15 + 0x1) & 0x1ff
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			v19 := v18
			v20 := v19
			v21 := v20
			v22 := v21
			v25 := v24
			v33 := v32
			v37 := v34
			n0 := v22
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = n0
			v15 = n1
			v7 = n2
			v34 = n3
		case 0x4:
			break loop
		default:
			var v9 uint64
			if v7 == 0x0 {
				v9 = 1
			}
			var v14 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v14 = m0[addr] & 0x1ff
			}
			var v16 uint64
			if v14 <= v15 {
				v16 = 1
			}
			var v18 uint64
			if v16 != 0 {
				v18 = 0x4
			} else {
				v18 = 0x1
			}
			v24 := (v15 + 0x1) & 0x1ff
			var v26 uint64
			if addr := uint64(v15); addr < uint64(len(m0)) {
				v26 = m0[addr] & 0x7fffff
			}
			v28 := v26 & 0x7f
			var v29 uint64
			if v7 != 0x0 {
				v29 = 1
			}
			v31 := (v7 - 0x1) & 0x7f
			var v32 uint64
			if v29 != 0 {
				v32 = v31
			} else {
				v32 = v7
			}
			v36 := (v34 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v11 uint64
			if v9 != 0 {
				v11 = 0x3
			} else {
				v11 = v0
			}
			var v12 uint64
			if v0 == 0x3 {
				v12 = 1
			}
			var v19 uint64
			if v12 != 0 {
				v19 = v18
			} else {
				v19 = v0
			}
			var v20 uint64
			if v6 != 0 {
				v20 = v11
			} else {
				v20 = v19
			}
			var v21 uint64
			if v4 != 0 {
				v21 = 0x2
			} else {
				v21 = v20
			}
			var v22 uint64
			if v2 != 0 {
				v22 = 0x1
			} else {
				v22 = v21
			}
			var v25 uint64
			if v12 != 0 {
				v25 = v24
			} else {
				v25 = v15
			}
			var v33 uint64
			if v4 != 0 {
				v33 = v28
			} else {
				v33 = v32
			}
			var v37 uint64
			if v4 != 0 {
				v37 = v36
			} else {
				v37 = v34
			}
			var v38 uint64
			if v0 == 0x4 {
				v38 = 1
			}
			if v38 != 0 {
				break loop
			}
			n0 := v22
			n1 := v25
			n2 := v33
			n3 := v37
			v0 = n0
			v15 = n1
			v7 = n2
			v34 = n3
		}
	}
	vals[0] = v0
	vals[15] = v15
	vals[7] = v7
	vals[34] = v34
	var v9 uint64
	if v7 == 0x0 {
		v9 = 1
	}
	vals[9] = v9
	var v14 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v14 = m0[addr] & 0x1ff
	}
	vals[14] = v14
	var v16 uint64
	if v14 <= v15 {
		v16 = 1
	}
	vals[16] = v16
	var v18 uint64
	if v16 != 0 {
		v18 = 0x4
	} else {
		v18 = 0x1
	}
	vals[18] = v18
	v24 := (v15 + 0x1) & 0x1ff
	vals[24] = v24
	var v26 uint64
	if addr := uint64(v15); addr < uint64(len(m0)) {
		v26 = m0[addr] & 0x7fffff
	}
	vals[26] = v26
	v28 := v26 & 0x7f
	vals[28] = v28
	var v29 uint64
	if v7 != 0x0 {
		v29 = 1
	}
	vals[29] = v29
	v31 := (v7 - 0x1) & 0x7f
	vals[31] = v31
	var v32 uint64
	if v29 != 0 {
		v32 = v31
	} else {
		v32 = v7
	}
	vals[32] = v32
	v36 := (v34 + 0x1) & 0xffffff
	vals[36] = v36
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x0
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x0
		vals[20] = 0x0
		vals[21] = 0x0
		vals[22] = 0x1
		v25 := v15
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x1
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x1
		vals[20] = 0x1
		vals[21] = 0x2
		vals[22] = 0x2
		v25 := v15
		vals[25] = v25
		v33 := v28
		vals[33] = v33
		v37 := v36
		vals[37] = v37
		vals[38] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x2
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x2
		v20 := v11
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v25 := v15
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x3
		}
		vals[11] = v11
		vals[12] = 0x1
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v21 := v20
		vals[21] = v21
		v22 := v21
		vals[22] = v22
		v25 := v24
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = 0x4
		}
		vals[11] = v11
		vals[12] = 0x0
		vals[19] = 0x4
		vals[20] = 0x4
		vals[21] = 0x4
		vals[22] = 0x4
		v25 := v15
		vals[25] = v25
		v33 := v32
		vals[33] = v33
		v37 := v34
		vals[37] = v37
		vals[38] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v11 uint64
		if v9 != 0 {
			v11 = 0x3
		} else {
			v11 = v0
		}
		vals[11] = v11
		var v12 uint64
		if v0 == 0x3 {
			v12 = 1
		}
		vals[12] = v12
		var v19 uint64
		if v12 != 0 {
			v19 = v18
		} else {
			v19 = v0
		}
		vals[19] = v19
		var v20 uint64
		if v6 != 0 {
			v20 = v11
		} else {
			v20 = v19
		}
		vals[20] = v20
		var v21 uint64
		if v4 != 0 {
			v21 = 0x2
		} else {
			v21 = v20
		}
		vals[21] = v21
		var v22 uint64
		if v2 != 0 {
			v22 = 0x1
		} else {
			v22 = v21
		}
		vals[22] = v22
		var v25 uint64
		if v12 != 0 {
			v25 = v24
		} else {
			v25 = v15
		}
		vals[25] = v25
		var v33 uint64
		if v4 != 0 {
			v33 = v28
		} else {
			v33 = v32
		}
		vals[33] = v33
		var v37 uint64
		if v4 != 0 {
			v37 = v36
		} else {
			v37 = v34
		}
		vals[37] = v37
		var v38 uint64
		if v0 == 0x4 {
			v38 = 1
		}
		vals[38] = v38
	}
	done := vals[38] != 0
	l0 := vals[22] & 0x7
	l1 := vals[25] & 0x1ff
	l2 := vals[33] & 0x7f
	l3 := vals[37] & 0xffffff
	vals[0] = l0
	vals[15] = l1
	vals[7] = l2
	vals[34] = l3
	return cycles + 1, done
}

func step_md_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[58]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	v24 := vals[24]
	v30 := vals[30]
	v34 := vals[34]
	v39 := vals[39]
	v44 := vals[44]
	v49 := vals[49]
	v54 := vals[54]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v56 := (v54 + 0x1) & 0xffffff
			v21 := v11
			v29 := v24
			v33 := v30
			v38 := v34
			v43 := v39
			v48 := v44
			v53 := v49
			v57 := v56
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = 0x1
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x1:
			var v25 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0x7fffff
			}
			v27 := v25 & 0x7f
			v28 := (v24 + v27) & 0xffffff
			v32 := (v30 + 0x1) & 0xffffff
			v52 := (v49 + 0x1) & 0xffffff
			v21 := v11
			v29 := v28
			v33 := v32
			v38 := v34
			v43 := v39
			v48 := v44
			v53 := v52
			v57 := v54
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = 0x2
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x2:
			v47 := (v44 + 0x1) & 0xffffff
			v21 := v11
			v29 := v24
			v33 := v30
			v38 := v34
			v43 := v39
			v48 := v47
			v53 := v49
			v57 := v54
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = 0x3
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x3:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			v37 := (v34 + 0x1) & 0xffffff
			v42 := (v39 + 0x1) & 0xffffff
			v15 := v14
			v16 := v15
			v17 := v16
			v18 := v17
			v21 := v20
			v29 := v24
			v33 := v30
			var v35 uint64
			if v18 == 0x1 {
				v35 = 1
			}
			v36 := v35
			var v38 uint64
			if v36 != 0 {
				v38 = v37
			} else {
				v38 = v34
			}
			var v40 uint64
			if v18 == 0x4 {
				v40 = 1
			}
			v41 := v40
			var v43 uint64
			if v41 != 0 {
				v43 = v42
			} else {
				v43 = v39
			}
			v48 := v44
			v53 := v49
			v57 := v54
			n0 := v18
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = n0
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		case 0x4:
			break loop
		default:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			var v25 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v25 = m0[addr] & 0x7fffff
			}
			v27 := v25 & 0x7f
			v28 := (v24 + v27) & 0xffffff
			v32 := (v30 + 0x1) & 0xffffff
			v37 := (v34 + 0x1) & 0xffffff
			v42 := (v39 + 0x1) & 0xffffff
			v47 := (v44 + 0x1) & 0xffffff
			v52 := (v49 + 0x1) & 0xffffff
			v56 := (v54 + 0x1) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v15 uint64
			if v8 != 0 {
				v15 = v14
			} else {
				v15 = v0
			}
			var v16 uint64
			if v6 != 0 {
				v16 = 0x3
			} else {
				v16 = v15
			}
			var v17 uint64
			if v4 != 0 {
				v17 = 0x2
			} else {
				v17 = v16
			}
			var v18 uint64
			if v2 != 0 {
				v18 = 0x1
			} else {
				v18 = v17
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v20
			} else {
				v21 = v11
			}
			var v29 uint64
			if v4 != 0 {
				v29 = v28
			} else {
				v29 = v24
			}
			var v33 uint64
			if v4 != 0 {
				v33 = v32
			} else {
				v33 = v30
			}
			var v35 uint64
			if v18 == 0x1 {
				v35 = 1
			}
			v36 := v8 & v35
			var v38 uint64
			if v36 != 0 {
				v38 = v37
			} else {
				v38 = v34
			}
			var v40 uint64
			if v18 == 0x4 {
				v40 = 1
			}
			v41 := v8 & v40
			var v43 uint64
			if v41 != 0 {
				v43 = v42
			} else {
				v43 = v39
			}
			var v45 uint64
			if v18 == 0x3 {
				v45 = 1
			}
			v46 := v6 & v45
			var v48 uint64
			if v46 != 0 {
				v48 = v47
			} else {
				v48 = v44
			}
			var v50 uint64
			if v18 == 0x2 {
				v50 = 1
			}
			v51 := v4 & v50
			var v53 uint64
			if v51 != 0 {
				v53 = v52
			} else {
				v53 = v49
			}
			v55 := v2 & v35
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v54
			}
			var v58 uint64
			if v0 == 0x4 {
				v58 = 1
			}
			if v58 != 0 {
				break loop
			}
			n0 := v18
			n1 := v21
			n3 := v29
			n4 := v33
			n5 := v38
			n6 := v43
			n7 := v48
			n8 := v53
			n9 := v57
			v0 = n0
			v11 = n1
			v22 = 0x0
			v24 = n3
			v30 = n4
			v34 = n5
			v39 = n6
			v44 = n7
			v49 = n8
			v54 = n9
		}
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	vals[24] = v24
	vals[30] = v30
	vals[34] = v34
	vals[39] = v39
	vals[44] = v44
	vals[49] = v49
	vals[54] = v54
	var v10 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0x1ff
	}
	vals[10] = v10
	var v12 uint64
	if v10 <= v11 {
		v12 = 1
	}
	vals[12] = v12
	var v14 uint64
	if v12 != 0 {
		v14 = 0x4
	} else {
		v14 = 0x1
	}
	vals[14] = v14
	v20 := (v11 + 0x1) & 0x1ff
	vals[20] = v20
	var v25 uint64
	if addr := uint64(v11); addr < uint64(len(m0)) {
		v25 = m0[addr] & 0x7fffff
	}
	vals[25] = v25
	v27 := v25 & 0x7f
	vals[27] = v27
	v28 := (v24 + v27) & 0xffffff
	vals[28] = v28
	v32 := (v30 + 0x1) & 0xffffff
	vals[32] = v32
	v37 := (v34 + 0x1) & 0xffffff
	vals[37] = v37
	v42 := (v39 + 0x1) & 0xffffff
	vals[42] = v42
	v47 := (v44 + 0x1) & 0xffffff
	vals[47] = v47
	v52 := (v49 + 0x1) & 0xffffff
	vals[52] = v52
	v56 := (v54 + 0x1) & 0xffffff
	vals[56] = v56
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x1
		v21 := v11
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		vals[35] = 0x1
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x0
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x0
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x1
		v57 := v56
		vals[57] = v57
		vals[58] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x1
		vals[16] = 0x1
		vals[17] = 0x2
		vals[18] = 0x2
		v21 := v11
		vals[21] = v21
		v29 := v28
		vals[29] = v29
		v33 := v32
		vals[33] = v33
		vals[35] = 0x0
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x0
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x0
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		vals[50] = 0x1
		vals[51] = 0x1
		v53 := v52
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[15] = 0x2
		vals[16] = 0x3
		vals[17] = 0x3
		vals[18] = 0x3
		v21 := v11
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		vals[35] = 0x0
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x0
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x1
		vals[46] = 0x1
		v48 := v47
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		v15 := v14
		vals[15] = v15
		v16 := v15
		vals[16] = v16
		v17 := v16
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v21 := v20
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		var v35 uint64
		if v18 == 0x1 {
			v35 = 1
		}
		vals[35] = v35
		v36 := v35
		vals[36] = v36
		var v38 uint64
		if v36 != 0 {
			v38 = v37
		} else {
			v38 = v34
		}
		vals[38] = v38
		var v40 uint64
		if v18 == 0x4 {
			v40 = 1
		}
		vals[40] = v40
		v41 := v40
		vals[41] = v41
		var v43 uint64
		if v41 != 0 {
			v43 = v42
		} else {
			v43 = v39
		}
		vals[43] = v43
		var v45 uint64
		if v18 == 0x3 {
			v45 = 1
		}
		vals[45] = v45
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		var v50 uint64
		if v18 == 0x2 {
			v50 = 1
		}
		vals[50] = v50
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x4
		vals[16] = 0x4
		vals[17] = 0x4
		vals[18] = 0x4
		v21 := v11
		vals[21] = v21
		v29 := v24
		vals[29] = v29
		v33 := v30
		vals[33] = v33
		vals[35] = 0x0
		vals[36] = 0x0
		v38 := v34
		vals[38] = v38
		vals[40] = 0x1
		vals[41] = 0x0
		v43 := v39
		vals[43] = v43
		vals[45] = 0x0
		vals[46] = 0x0
		v48 := v44
		vals[48] = v48
		vals[50] = 0x0
		vals[51] = 0x0
		v53 := v49
		vals[53] = v53
		vals[55] = 0x0
		v57 := v54
		vals[57] = v57
		vals[58] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v15 uint64
		if v8 != 0 {
			v15 = v14
		} else {
			v15 = v0
		}
		vals[15] = v15
		var v16 uint64
		if v6 != 0 {
			v16 = 0x3
		} else {
			v16 = v15
		}
		vals[16] = v16
		var v17 uint64
		if v4 != 0 {
			v17 = 0x2
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v2 != 0 {
			v18 = 0x1
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v21 uint64
		if v8 != 0 {
			v21 = v20
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v29 uint64
		if v4 != 0 {
			v29 = v28
		} else {
			v29 = v24
		}
		vals[29] = v29
		var v33 uint64
		if v4 != 0 {
			v33 = v32
		} else {
			v33 = v30
		}
		vals[33] = v33
		var v35 uint64
		if v18 == 0x1 {
			v35 = 1
		}
		vals[35] = v35
		v36 := v8 & v35
		vals[36] = v36
		var v38 uint64
		if v36 != 0 {
			v38 = v37
		} else {
			v38 = v34
		}
		vals[38] = v38
		var v40 uint64
		if v18 == 0x4 {
			v40 = 1
		}
		vals[40] = v40
		v41 := v8 & v40
		vals[41] = v41
		var v43 uint64
		if v41 != 0 {
			v43 = v42
		} else {
			v43 = v39
		}
		vals[43] = v43
		var v45 uint64
		if v18 == 0x3 {
			v45 = 1
		}
		vals[45] = v45
		v46 := v6 & v45
		vals[46] = v46
		var v48 uint64
		if v46 != 0 {
			v48 = v47
		} else {
			v48 = v44
		}
		vals[48] = v48
		var v50 uint64
		if v18 == 0x2 {
			v50 = 1
		}
		vals[50] = v50
		v51 := v4 & v50
		vals[51] = v51
		var v53 uint64
		if v51 != 0 {
			v53 = v52
		} else {
			v53 = v49
		}
		vals[53] = v53
		v55 := v2 & v35
		vals[55] = v55
		var v57 uint64
		if v55 != 0 {
			v57 = v56
		} else {
			v57 = v54
		}
		vals[57] = v57
		var v58 uint64
		if v0 == 0x4 {
			v58 = 1
		}
		vals[58] = v58
	}
	done := vals[58] != 0
	l0 := vals[18] & 0x7
	l1 := vals[21] & 0x1ff
	l2 := vals[23] & 0xffffff
	l3 := vals[29] & 0xffffff
	l4 := vals[33] & 0xffffff
	l5 := vals[38] & 0xffffff
	l6 := vals[43] & 0xffffff
	l7 := vals[48] & 0xffffff
	l8 := vals[53] & 0xffffff
	l9 := vals[57] & 0xffffff
	vals[0] = l0
	vals[11] = l1
	vals[22] = l2
	vals[24] = l3
	vals[30] = l4
	vals[34] = l5
	vals[39] = l6
	vals[44] = l7
	vals[49] = l8
	vals[54] = l9
	return cycles + 1, done
}

func step_md_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[28]
	m0 := mems[0]
	v0 := vals[0]
	v11 := vals[11]
	v22 := vals[22]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			v21 := v11
			v27 := v22
			n1 := v21
			n2 := v27
			v0 = 0x1
			v11 = n1
			v22 = n2
		case 0x1:
			var v23 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v23 = m0[addr] & 0x7fffff
			}
			v25 := v23 & 0x7f
			v26 := (v22 + v25) & 0xffffff
			v21 := v11
			v27 := v26
			n1 := v21
			n2 := v27
			v0 = 0x2
			v11 = n1
			v22 = n2
		case 0x2:
			v21 := v11
			v27 := v22
			n1 := v21
			n2 := v27
			v0 = 0x3
			v11 = n1
			v22 = n2
		case 0x3:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			v15 := v14
			v16 := v15
			v17 := v16
			v18 := v17
			v21 := v20
			v27 := v22
			n0 := v18
			n1 := v21
			n2 := v27
			v0 = n0
			v11 = n1
			v22 = n2
		case 0x4:
			break loop
		default:
			var v10 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v10 = m0[addr] & 0x1ff
			}
			var v12 uint64
			if v10 <= v11 {
				v12 = 1
			}
			var v14 uint64
			if v12 != 0 {
				v14 = 0x4
			} else {
				v14 = 0x1
			}
			v20 := (v11 + 0x1) & 0x1ff
			var v23 uint64
			if addr := uint64(v11); addr < uint64(len(m0)) {
				v23 = m0[addr] & 0x7fffff
			}
			v25 := v23 & 0x7f
			v26 := (v22 + v25) & 0xffffff
			var v2 uint64
			if v0 == 0x0 {
				v2 = 1
			}
			var v4 uint64
			if v0 == 0x1 {
				v4 = 1
			}
			var v6 uint64
			if v0 == 0x2 {
				v6 = 1
			}
			var v8 uint64
			if v0 == 0x3 {
				v8 = 1
			}
			var v15 uint64
			if v8 != 0 {
				v15 = v14
			} else {
				v15 = v0
			}
			var v16 uint64
			if v6 != 0 {
				v16 = 0x3
			} else {
				v16 = v15
			}
			var v17 uint64
			if v4 != 0 {
				v17 = 0x2
			} else {
				v17 = v16
			}
			var v18 uint64
			if v2 != 0 {
				v18 = 0x1
			} else {
				v18 = v17
			}
			var v21 uint64
			if v8 != 0 {
				v21 = v20
			} else {
				v21 = v11
			}
			var v27 uint64
			if v4 != 0 {
				v27 = v26
			} else {
				v27 = v22
			}
			var v28 uint64
			if v0 == 0x4 {
				v28 = 1
			}
			if v28 != 0 {
				break loop
			}
			n0 := v18
			n1 := v21
			n2 := v27
			v0 = n0
			v11 = n1
			v22 = n2
		}
	}
	vals[0] = v0
	vals[11] = v11
	vals[22] = v22
	var v10 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v10 = m0[addr] & 0x1ff
	}
	vals[10] = v10
	var v12 uint64
	if v10 <= v11 {
		v12 = 1
	}
	vals[12] = v12
	var v14 uint64
	if v12 != 0 {
		v14 = 0x4
	} else {
		v14 = 0x1
	}
	vals[14] = v14
	v20 := (v11 + 0x1) & 0x1ff
	vals[20] = v20
	var v23 uint64
	if addr := uint64(v11); addr < uint64(len(m0)) {
		v23 = m0[addr] & 0x7fffff
	}
	vals[23] = v23
	v25 := v23 & 0x7f
	vals[25] = v25
	v26 := (v22 + v25) & 0xffffff
	vals[26] = v26
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x1
		v21 := v11
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x1
		vals[16] = 0x1
		vals[17] = 0x2
		vals[18] = 0x2
		v21 := v11
		vals[21] = v21
		v27 := v26
		vals[27] = v27
		vals[28] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[15] = 0x2
		vals[16] = 0x3
		vals[17] = 0x3
		vals[18] = 0x3
		v21 := v11
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		v15 := v14
		vals[15] = v15
		v16 := v15
		vals[16] = v16
		v17 := v16
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v21 := v20
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[15] = 0x4
		vals[16] = 0x4
		vals[17] = 0x4
		vals[18] = 0x4
		v21 := v11
		vals[21] = v21
		v27 := v22
		vals[27] = v27
		vals[28] = 0x1
	default:
		var v2 uint64
		if v0 == 0x0 {
			v2 = 1
		}
		vals[2] = v2
		var v4 uint64
		if v0 == 0x1 {
			v4 = 1
		}
		vals[4] = v4
		var v6 uint64
		if v0 == 0x2 {
			v6 = 1
		}
		vals[6] = v6
		var v8 uint64
		if v0 == 0x3 {
			v8 = 1
		}
		vals[8] = v8
		var v15 uint64
		if v8 != 0 {
			v15 = v14
		} else {
			v15 = v0
		}
		vals[15] = v15
		var v16 uint64
		if v6 != 0 {
			v16 = 0x3
		} else {
			v16 = v15
		}
		vals[16] = v16
		var v17 uint64
		if v4 != 0 {
			v17 = 0x2
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v2 != 0 {
			v18 = 0x1
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v21 uint64
		if v8 != 0 {
			v21 = v20
		} else {
			v21 = v11
		}
		vals[21] = v21
		var v27 uint64
		if v4 != 0 {
			v27 = v26
		} else {
			v27 = v22
		}
		vals[27] = v27
		var v28 uint64
		if v0 == 0x4 {
			v28 = 1
		}
		vals[28] = v28
	}
	done := vals[28] != 0
	l0 := vals[18] & 0x7
	l1 := vals[21] & 0x1ff
	l2 := vals[27] & 0xffffff
	vals[0] = l0
	vals[11] = l1
	vals[22] = l2
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("bf665af83092e78ba4742ba0360fdb4a642472c8157b274d0cf98fbf0a4e62bf", "md", step_md)
	rtl.RegisterNative("71c048f69366b0da4b4475476728fcd000efc70268835312d5d54a9c13ffbbd8", "md_ins", step_md_ins)
	rtl.RegisterNative("05b7ef3c862051b804d0a5af1480df5629f338cab0de597ab655c62723a60af3", "md_pruned", step_md_pruned)
	rtl.RegisterNative("3d5f803f1279c3c300160a2cb66a57b94232d703f6d490ea214965954ed06327", "md_cone", step_md_cone)
	rtl.RegisterNative("8ad7a0606b801a145109b1f8a3fc057a4974fa5a36349f61ef2a4947f1c67b2a", "md_slice_all", step_md_slice_all)
	rtl.RegisterNative("dea19e0260931bacd423fd7f3db8ffd5b185d4fe6b5dbaea3c873e975387bbd9", "md_slice_t42", step_md_slice_t42)
}
