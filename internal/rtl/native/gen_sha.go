// Code generated by rtlgen. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/rtl/native

package native

import "repro/internal/rtl"

func step_sha_slice_all(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[86]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v29 := vals[29]
	v31 := vals[31]
	v35 := vals[35]
	v39 := vals[39]
	v40 := vals[40]
	v45 := vals[45]
	v48 := vals[48]
	v51 := vals[51]
	v54 := vals[54]
	v57 := vals[57]
	v62 := vals[62]
	v67 := vals[67]
	v72 := vals[72]
	v77 := vals[77]
	v82 := vals[82]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v43 := (v40 + 0xf) & 0xffffff
			v46 := (v45 + 0x1) & 0xffffff
			v49 := (v48 + v9) & 0xffffff
			v52 := (v51 + v24) & 0xffffff
			v55 := (v54 + 0x1) & 0xffffff
			v84 := (v82 + 0x1) & 0xffffff
			v28 := v24
			v34 := v31
			v38 := v35
			v44 := v43
			v47 := v46
			v50 := v49
			v53 := v52
			v56 := v55
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v84
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x1
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x1:
			v33 := (v31 + 0x3f) & 0xffffff
			v37 := (v35 + 0x1) & 0xffffff
			v80 := (v77 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v34 := v33
			v38 := v37
			v44 := v40
			v47 := v45
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v80
			v85 := v82
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x2
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x2:
			v75 := (v72 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v34 := v31
			v38 := v35
			v44 := v40
			v47 := v45
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			v66 := v62
			v71 := v67
			v76 := v75
			v81 := v77
			v85 := v82
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x3
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x3:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			v26 := (v9 - 0x1) & 0xffff
			v43 := (v40 + 0xf) & 0xffffff
			v46 := (v45 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v17 := v13
			v18 := v17
			v19 := v18
			v20 := v19
			v25 := v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v34 := v31
			v38 := v35
			v41 := v25
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v57
			var v63 uint64
			if v20 == 0x4 {
				v63 = 1
			}
			v64 := v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v20 == 0x1 {
				v68 = 1
			}
			v69 := v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			v76 := v72
			v81 := v77
			v85 := v82
			n0 := v20
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = n0
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x4:
			v60 := (v57 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v34 := v31
			v38 := v35
			v44 := v40
			v47 := v45
			v50 := v48
			v53 := v51
			v56 := v54
			v61 := v60
			v66 := v62
			v71 := v67
			v76 := v72
			v81 := v77
			v85 := v82
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = 0x5
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		case 0x5:
			break loop
		default:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v26 := (v9 - 0x1) & 0xffff
			v33 := (v31 + 0x3f) & 0xffffff
			v37 := (v35 + 0x1) & 0xffffff
			v43 := (v40 + 0xf) & 0xffffff
			v46 := (v45 + 0x1) & 0xffffff
			v49 := (v48 + v9) & 0xffffff
			v52 := (v51 + v24) & 0xffffff
			v55 := (v54 + 0x1) & 0xffffff
			v60 := (v57 + 0x1) & 0xffffff
			v65 := (v62 + 0x1) & 0xffffff
			v70 := (v67 + 0x1) & 0xffffff
			v75 := (v72 + 0x1) & 0xffffff
			v80 := (v77 + 0x1) & 0xffffff
			v84 := (v82 + 0x1) & 0xffffff
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
			var v14 uint64
			if v0 == 0x4 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x5
			} else {
				v16 = v0
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v13
			} else {
				v17 = v16
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			v25 := v8 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			var v28 uint64
			if v2 != 0 {
				v28 = v24
			} else {
				v28 = v27
			}
			var v34 uint64
			if v4 != 0 {
				v34 = v33
			} else {
				v34 = v31
			}
			var v38 uint64
			if v4 != 0 {
				v38 = v37
			} else {
				v38 = v35
			}
			v41 := (v2 | v25)
			var v44 uint64
			if v41 != 0 {
				v44 = v43
			} else {
				v44 = v40
			}
			var v47 uint64
			if v41 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			var v50 uint64
			if v2 != 0 {
				v50 = v49
			} else {
				v50 = v48
			}
			var v53 uint64
			if v2 != 0 {
				v53 = v52
			} else {
				v53 = v51
			}
			var v56 uint64
			if v2 != 0 {
				v56 = v55
			} else {
				v56 = v54
			}
			var v58 uint64
			if v20 == 0x5 {
				v58 = 1
			}
			v59 := v14 & v58
			var v61 uint64
			if v59 != 0 {
				v61 = v60
			} else {
				v61 = v57
			}
			var v63 uint64
			if v20 == 0x4 {
				v63 = 1
			}
			v64 := v8 & v63
			var v66 uint64
			if v64 != 0 {
				v66 = v65
			} else {
				v66 = v62
			}
			var v68 uint64
			if v20 == 0x1 {
				v68 = 1
			}
			v69 := v8 & v68
			var v71 uint64
			if v69 != 0 {
				v71 = v70
			} else {
				v71 = v67
			}
			var v73 uint64
			if v20 == 0x3 {
				v73 = 1
			}
			v74 := v6 & v73
			var v76 uint64
			if v74 != 0 {
				v76 = v75
			} else {
				v76 = v72
			}
			var v78 uint64
			if v20 == 0x2 {
				v78 = 1
			}
			v79 := v4 & v78
			var v81 uint64
			if v79 != 0 {
				v81 = v80
			} else {
				v81 = v77
			}
			v83 := v2 & v68
			var v85 uint64
			if v83 != 0 {
				v85 = v84
			} else {
				v85 = v82
			}
			var v86 uint64
			if v0 == 0x5 {
				v86 = 1
			}
			if v86 != 0 {
				break loop
			}
			n0 := v20
			n1 := v28
			n3 := v34
			n4 := v38
			n6 := v44
			n7 := v47
			n8 := v50
			n9 := v53
			n10 := v56
			n11 := v61
			n12 := v66
			n13 := v71
			n14 := v76
			n15 := v81
			n16 := v85
			v0 = n0
			v9 = n1
			v29 = 0x0
			v31 = n3
			v35 = n4
			v39 = 0x0
			v40 = n6
			v45 = n7
			v48 = n8
			v51 = n9
			v54 = n10
			v57 = n11
			v62 = n12
			v67 = n13
			v72 = n14
			v77 = n15
			v82 = n16
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[29] = v29
	vals[31] = v31
	vals[35] = v35
	vals[39] = v39
	vals[40] = v40
	vals[45] = v45
	vals[48] = v48
	vals[51] = v51
	vals[54] = v54
	vals[57] = v57
	vals[62] = v62
	vals[67] = v67
	vals[72] = v72
	vals[77] = v77
	vals[82] = v82
	var v11 uint64
	if v9 != 0x0 {
		v11 = 1
	}
	vals[11] = v11
	var v13 uint64
	if v11 != 0 {
		v13 = 0x1
	} else {
		v13 = 0x4
	}
	vals[13] = v13
	var v22 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v22 = m0[addr] & 0xffff
	}
	vals[22] = v22
	v24 := (v22 - 0x1) & 0xffff
	vals[24] = v24
	v26 := (v9 - 0x1) & 0xffff
	vals[26] = v26
	v33 := (v31 + 0x3f) & 0xffffff
	vals[33] = v33
	v37 := (v35 + 0x1) & 0xffffff
	vals[37] = v37
	v43 := (v40 + 0xf) & 0xffffff
	vals[43] = v43
	v46 := (v45 + 0x1) & 0xffffff
	vals[46] = v46
	v49 := (v48 + v9) & 0xffffff
	vals[49] = v49
	v52 := (v51 + v24) & 0xffffff
	vals[52] = v52
	v55 := (v54 + 0x1) & 0xffffff
	vals[55] = v55
	v60 := (v57 + 0x1) & 0xffffff
	vals[60] = v60
	v65 := (v62 + 0x1) & 0xffffff
	vals[65] = v65
	v70 := (v67 + 0x1) & 0xffffff
	vals[70] = v70
	v75 := (v72 + 0x1) & 0xffffff
	vals[75] = v75
	v80 := (v77 + 0x1) & 0xffffff
	vals[80] = v80
	v84 := (v82 + 0x1) & 0xffffff
	vals[84] = v84
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x1
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v24
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x1
		v44 := v43
		vals[44] = v44
		v47 := v46
		vals[47] = v47
		v50 := v49
		vals[50] = v50
		v53 := v52
		vals[53] = v53
		v56 := v55
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x1
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x1
		v85 := v84
		vals[85] = v85
		vals[86] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x1
		vals[17] = 0x1
		vals[18] = 0x1
		vals[19] = 0x2
		vals[20] = 0x2
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v33
		vals[34] = v34
		v38 := v37
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x1
		vals[79] = 0x1
		v81 := v80
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x2
		vals[17] = 0x2
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x3
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x0
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x1
		vals[74] = 0x1
		v76 := v75
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[14] = 0x0
		vals[16] = 0x3
		v17 := v13
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v25 := v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		v41 := v25
		vals[41] = v41
		var v44 uint64
		if v41 != 0 {
			v44 = v43
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v47 uint64
		if v41 != 0 {
			v47 = v46
		} else {
			v47 = v45
		}
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		var v58 uint64
		if v20 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		var v63 uint64
		if v20 == 0x4 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v68 uint64
		if v20 == 0x1 {
			v68 = 1
		}
		vals[68] = v68
		v69 := v68
		vals[69] = v69
		var v71 uint64
		if v69 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v73 uint64
		if v20 == 0x3 {
			v73 = 1
		}
		vals[73] = v73
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		var v78 uint64
		if v20 == 0x2 {
			v78 = 1
		}
		vals[78] = v78
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x1
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x1
		v61 := v60
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v34 := v31
		vals[34] = v34
		v38 := v35
		vals[38] = v38
		vals[41] = 0x0
		v44 := v40
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		v50 := v48
		vals[50] = v50
		v53 := v51
		vals[53] = v53
		v56 := v54
		vals[56] = v56
		vals[58] = 0x1
		vals[59] = 0x0
		v61 := v57
		vals[61] = v61
		vals[63] = 0x0
		vals[64] = 0x0
		v66 := v62
		vals[66] = v66
		vals[68] = 0x0
		vals[69] = 0x0
		v71 := v67
		vals[71] = v71
		vals[73] = 0x0
		vals[74] = 0x0
		v76 := v72
		vals[76] = v76
		vals[78] = 0x0
		vals[79] = 0x0
		v81 := v77
		vals[81] = v81
		vals[83] = 0x0
		v85 := v82
		vals[85] = v85
		vals[86] = 0x1
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
		var v14 uint64
		if v0 == 0x4 {
			v14 = 1
		}
		vals[14] = v14
		var v16 uint64
		if v14 != 0 {
			v16 = 0x5
		} else {
			v16 = v0
		}
		vals[16] = v16
		var v17 uint64
		if v8 != 0 {
			v17 = v13
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v6 != 0 {
			v18 = 0x3
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v19 uint64
		if v4 != 0 {
			v19 = 0x2
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v2 != 0 {
			v20 = 0x1
		} else {
			v20 = v19
		}
		vals[20] = v20
		v25 := v8 & v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		var v28 uint64
		if v2 != 0 {
			v28 = v24
		} else {
			v28 = v27
		}
		vals[28] = v28
		var v34 uint64
		if v4 != 0 {
			v34 = v33
		} else {
			v34 = v31
		}
		vals[34] = v34
		var v38 uint64
		if v4 != 0 {
			v38 = v37
		} else {
			v38 = v35
		}
		vals[38] = v38
		v41 := (v2 | v25)
		vals[41] = v41
		var v44 uint64
		if v41 != 0 {
			v44 = v43
		} else {
			v44 = v40
		}
		vals[44] = v44
		var v47 uint64
		if v41 != 0 {
			v47 = v46
		} else {
			v47 = v45
		}
		vals[47] = v47
		var v50 uint64
		if v2 != 0 {
			v50 = v49
		} else {
			v50 = v48
		}
		vals[50] = v50
		var v53 uint64
		if v2 != 0 {
			v53 = v52
		} else {
			v53 = v51
		}
		vals[53] = v53
		var v56 uint64
		if v2 != 0 {
			v56 = v55
		} else {
			v56 = v54
		}
		vals[56] = v56
		var v58 uint64
		if v20 == 0x5 {
			v58 = 1
		}
		vals[58] = v58
		v59 := v14 & v58
		vals[59] = v59
		var v61 uint64
		if v59 != 0 {
			v61 = v60
		} else {
			v61 = v57
		}
		vals[61] = v61
		var v63 uint64
		if v20 == 0x4 {
			v63 = 1
		}
		vals[63] = v63
		v64 := v8 & v63
		vals[64] = v64
		var v66 uint64
		if v64 != 0 {
			v66 = v65
		} else {
			v66 = v62
		}
		vals[66] = v66
		var v68 uint64
		if v20 == 0x1 {
			v68 = 1
		}
		vals[68] = v68
		v69 := v8 & v68
		vals[69] = v69
		var v71 uint64
		if v69 != 0 {
			v71 = v70
		} else {
			v71 = v67
		}
		vals[71] = v71
		var v73 uint64
		if v20 == 0x3 {
			v73 = 1
		}
		vals[73] = v73
		v74 := v6 & v73
		vals[74] = v74
		var v76 uint64
		if v74 != 0 {
			v76 = v75
		} else {
			v76 = v72
		}
		vals[76] = v76
		var v78 uint64
		if v20 == 0x2 {
			v78 = 1
		}
		vals[78] = v78
		v79 := v4 & v78
		vals[79] = v79
		var v81 uint64
		if v79 != 0 {
			v81 = v80
		} else {
			v81 = v77
		}
		vals[81] = v81
		v83 := v2 & v68
		vals[83] = v83
		var v85 uint64
		if v83 != 0 {
			v85 = v84
		} else {
			v85 = v82
		}
		vals[85] = v85
		var v86 uint64
		if v0 == 0x5 {
			v86 = 1
		}
		vals[86] = v86
	}
	done := vals[86] != 0
	l0 := vals[20] & 0x7
	l1 := vals[28] & 0xffff
	l2 := vals[30] & 0xffffff
	l3 := vals[34] & 0xffffff
	l4 := vals[38] & 0xffffff
	l5 := vals[30] & 0xffffff
	l6 := vals[44] & 0xffffff
	l7 := vals[47] & 0xffffff
	l8 := vals[50] & 0xffffff
	l9 := vals[53] & 0xffffff
	l10 := vals[56] & 0xffffff
	l11 := vals[61] & 0xffffff
	l12 := vals[66] & 0xffffff
	l13 := vals[71] & 0xffffff
	l14 := vals[76] & 0xffffff
	l15 := vals[81] & 0xffffff
	l16 := vals[85] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[29] = l2
	vals[31] = l3
	vals[35] = l4
	vals[39] = l5
	vals[40] = l6
	vals[45] = l7
	vals[48] = l8
	vals[51] = l9
	vals[54] = l10
	vals[57] = l11
	vals[62] = l12
	vals[67] = l13
	vals[72] = l14
	vals[77] = l15
	vals[82] = l16
	return cycles + 1, done
}

func step_sha_slice_t42(vals []uint64, mems [][]uint64, limit uint64) (uint64, bool) {
	_ = vals[63]
	m0 := mems[0]
	v0 := vals[0]
	v9 := vals[9]
	v29 := vals[29]
	v33 := vals[33]
	v37 := vals[37]
	v42 := vals[42]
	v45 := vals[45]
	v48 := vals[48]
	v53 := vals[53]
	v58 := vals[58]
	var cycles uint64
loop:
	for ; cycles+1 < limit; cycles++ {
		switch v0 {
		case 0x0:
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v40 := (v37 + 0xf) & 0xffffff
			v43 := (v42 + 0x1) & 0xffffff
			v46 := (v45 + v24) & 0xffffff
			v28 := v24
			v32 := v29
			v36 := v33
			v41 := v40
			v44 := v43
			v47 := v46
			v52 := v48
			v57 := v53
			v62 := v58
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x1
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x1:
			v31 := (v29 + 0x3f) & 0xffffff
			v35 := (v33 + 0x1) & 0xffffff
			v61 := (v58 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v32 := v31
			v36 := v35
			v41 := v37
			v44 := v42
			v47 := v45
			v52 := v48
			v57 := v53
			v62 := v61
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x2
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x2:
			v56 := (v53 + 0x1) & 0xffffff
			v27 := v9
			v28 := v27
			v32 := v29
			v36 := v33
			v41 := v37
			v44 := v42
			v47 := v45
			v52 := v48
			v57 := v56
			v62 := v58
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x3
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x3:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			v26 := (v9 - 0x1) & 0xffff
			v40 := (v37 + 0xf) & 0xffffff
			v43 := (v42 + 0x1) & 0xffffff
			v51 := (v48 + 0x1) & 0xffffff
			v17 := v13
			v18 := v17
			v19 := v18
			v20 := v19
			v25 := v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			v28 := v27
			v32 := v29
			v36 := v33
			v38 := v25
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			v47 := v45
			var v49 uint64
			if v20 == 0x1 {
				v49 = 1
			}
			v50 := v49
			var v52 uint64
			if v50 != 0 {
				v52 = v51
			} else {
				v52 = v48
			}
			v57 := v53
			v62 := v58
			n0 := v20
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = n0
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x4:
			v27 := v9
			v28 := v27
			v32 := v29
			v36 := v33
			v41 := v37
			v44 := v42
			v47 := v45
			v52 := v48
			v57 := v53
			v62 := v58
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = 0x5
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		case 0x5:
			break loop
		default:
			var v11 uint64
			if v9 != 0x0 {
				v11 = 1
			}
			var v13 uint64
			if v11 != 0 {
				v13 = 0x1
			} else {
				v13 = 0x4
			}
			var v22 uint64
			if addr := uint64(0x0); addr < uint64(len(m0)) {
				v22 = m0[addr] & 0xffff
			}
			v24 := (v22 - 0x1) & 0xffff
			v26 := (v9 - 0x1) & 0xffff
			v31 := (v29 + 0x3f) & 0xffffff
			v35 := (v33 + 0x1) & 0xffffff
			v40 := (v37 + 0xf) & 0xffffff
			v43 := (v42 + 0x1) & 0xffffff
			v46 := (v45 + v24) & 0xffffff
			v51 := (v48 + 0x1) & 0xffffff
			v56 := (v53 + 0x1) & 0xffffff
			v61 := (v58 + 0x1) & 0xffffff
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
			var v14 uint64
			if v0 == 0x4 {
				v14 = 1
			}
			var v16 uint64
			if v14 != 0 {
				v16 = 0x5
			} else {
				v16 = v0
			}
			var v17 uint64
			if v8 != 0 {
				v17 = v13
			} else {
				v17 = v16
			}
			var v18 uint64
			if v6 != 0 {
				v18 = 0x3
			} else {
				v18 = v17
			}
			var v19 uint64
			if v4 != 0 {
				v19 = 0x2
			} else {
				v19 = v18
			}
			var v20 uint64
			if v2 != 0 {
				v20 = 0x1
			} else {
				v20 = v19
			}
			v25 := v8 & v11
			var v27 uint64
			if v25 != 0 {
				v27 = v26
			} else {
				v27 = v9
			}
			var v28 uint64
			if v2 != 0 {
				v28 = v24
			} else {
				v28 = v27
			}
			var v32 uint64
			if v4 != 0 {
				v32 = v31
			} else {
				v32 = v29
			}
			var v36 uint64
			if v4 != 0 {
				v36 = v35
			} else {
				v36 = v33
			}
			v38 := (v2 | v25)
			var v41 uint64
			if v38 != 0 {
				v41 = v40
			} else {
				v41 = v37
			}
			var v44 uint64
			if v38 != 0 {
				v44 = v43
			} else {
				v44 = v42
			}
			var v47 uint64
			if v2 != 0 {
				v47 = v46
			} else {
				v47 = v45
			}
			var v49 uint64
			if v20 == 0x1 {
				v49 = 1
			}
			v50 := v8 & v49
			var v52 uint64
			if v50 != 0 {
				v52 = v51
			} else {
				v52 = v48
			}
			var v54 uint64
			if v20 == 0x3 {
				v54 = 1
			}
			v55 := v6 & v54
			var v57 uint64
			if v55 != 0 {
				v57 = v56
			} else {
				v57 = v53
			}
			var v59 uint64
			if v20 == 0x2 {
				v59 = 1
			}
			v60 := v4 & v59
			var v62 uint64
			if v60 != 0 {
				v62 = v61
			} else {
				v62 = v58
			}
			var v63 uint64
			if v0 == 0x5 {
				v63 = 1
			}
			if v63 != 0 {
				break loop
			}
			n0 := v20
			n1 := v28
			n2 := v32
			n3 := v36
			n4 := v41
			n5 := v44
			n6 := v47
			n7 := v52
			n8 := v57
			n9 := v62
			v0 = n0
			v9 = n1
			v29 = n2
			v33 = n3
			v37 = n4
			v42 = n5
			v45 = n6
			v48 = n7
			v53 = n8
			v58 = n9
		}
	}
	vals[0] = v0
	vals[9] = v9
	vals[29] = v29
	vals[33] = v33
	vals[37] = v37
	vals[42] = v42
	vals[45] = v45
	vals[48] = v48
	vals[53] = v53
	vals[58] = v58
	var v11 uint64
	if v9 != 0x0 {
		v11 = 1
	}
	vals[11] = v11
	var v13 uint64
	if v11 != 0 {
		v13 = 0x1
	} else {
		v13 = 0x4
	}
	vals[13] = v13
	var v22 uint64
	if addr := uint64(0x0); addr < uint64(len(m0)) {
		v22 = m0[addr] & 0xffff
	}
	vals[22] = v22
	v24 := (v22 - 0x1) & 0xffff
	vals[24] = v24
	v26 := (v9 - 0x1) & 0xffff
	vals[26] = v26
	v31 := (v29 + 0x3f) & 0xffffff
	vals[31] = v31
	v35 := (v33 + 0x1) & 0xffffff
	vals[35] = v35
	v40 := (v37 + 0xf) & 0xffffff
	vals[40] = v40
	v43 := (v42 + 0x1) & 0xffffff
	vals[43] = v43
	v46 := (v45 + v24) & 0xffffff
	vals[46] = v46
	v51 := (v48 + 0x1) & 0xffffff
	vals[51] = v51
	v56 := (v53 + 0x1) & 0xffffff
	vals[56] = v56
	v61 := (v58 + 0x1) & 0xffffff
	vals[61] = v61
	switch v0 {
	case 0x0:
		vals[2] = 0x1
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x0
		vals[17] = 0x0
		vals[18] = 0x0
		vals[19] = 0x0
		vals[20] = 0x1
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v24
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x1
		v41 := v40
		vals[41] = v41
		v44 := v43
		vals[44] = v44
		v47 := v46
		vals[47] = v47
		vals[49] = 0x1
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x1:
		vals[2] = 0x0
		vals[4] = 0x1
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x1
		vals[17] = 0x1
		vals[18] = 0x1
		vals[19] = 0x2
		vals[20] = 0x2
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v31
		vals[32] = v32
		v36 := v35
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x1
		vals[60] = 0x1
		v62 := v61
		vals[62] = v62
		vals[63] = 0x0
	case 0x2:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x1
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x2
		vals[17] = 0x2
		vals[18] = 0x3
		vals[19] = 0x3
		vals[20] = 0x3
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x1
		vals[55] = 0x1
		v57 := v56
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x3:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x1
		vals[14] = 0x0
		vals[16] = 0x3
		v17 := v13
		vals[17] = v17
		v18 := v17
		vals[18] = v18
		v19 := v18
		vals[19] = v19
		v20 := v19
		vals[20] = v20
		v25 := v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		v38 := v25
		vals[38] = v38
		var v41 uint64
		if v38 != 0 {
			v41 = v40
		} else {
			v41 = v37
		}
		vals[41] = v41
		var v44 uint64
		if v38 != 0 {
			v44 = v43
		} else {
			v44 = v42
		}
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		var v49 uint64
		if v20 == 0x1 {
			v49 = 1
		}
		vals[49] = v49
		v50 := v49
		vals[50] = v50
		var v52 uint64
		if v50 != 0 {
			v52 = v51
		} else {
			v52 = v48
		}
		vals[52] = v52
		var v54 uint64
		if v20 == 0x3 {
			v54 = 1
		}
		vals[54] = v54
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		var v59 uint64
		if v20 == 0x2 {
			v59 = 1
		}
		vals[59] = v59
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x4:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x1
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x0
	case 0x5:
		vals[2] = 0x0
		vals[4] = 0x0
		vals[6] = 0x0
		vals[8] = 0x0
		vals[14] = 0x0
		vals[16] = 0x5
		vals[17] = 0x5
		vals[18] = 0x5
		vals[19] = 0x5
		vals[20] = 0x5
		vals[25] = 0x0
		v27 := v9
		vals[27] = v27
		v28 := v27
		vals[28] = v28
		v32 := v29
		vals[32] = v32
		v36 := v33
		vals[36] = v36
		vals[38] = 0x0
		v41 := v37
		vals[41] = v41
		v44 := v42
		vals[44] = v44
		v47 := v45
		vals[47] = v47
		vals[49] = 0x0
		vals[50] = 0x0
		v52 := v48
		vals[52] = v52
		vals[54] = 0x0
		vals[55] = 0x0
		v57 := v53
		vals[57] = v57
		vals[59] = 0x0
		vals[60] = 0x0
		v62 := v58
		vals[62] = v62
		vals[63] = 0x1
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
		var v14 uint64
		if v0 == 0x4 {
			v14 = 1
		}
		vals[14] = v14
		var v16 uint64
		if v14 != 0 {
			v16 = 0x5
		} else {
			v16 = v0
		}
		vals[16] = v16
		var v17 uint64
		if v8 != 0 {
			v17 = v13
		} else {
			v17 = v16
		}
		vals[17] = v17
		var v18 uint64
		if v6 != 0 {
			v18 = 0x3
		} else {
			v18 = v17
		}
		vals[18] = v18
		var v19 uint64
		if v4 != 0 {
			v19 = 0x2
		} else {
			v19 = v18
		}
		vals[19] = v19
		var v20 uint64
		if v2 != 0 {
			v20 = 0x1
		} else {
			v20 = v19
		}
		vals[20] = v20
		v25 := v8 & v11
		vals[25] = v25
		var v27 uint64
		if v25 != 0 {
			v27 = v26
		} else {
			v27 = v9
		}
		vals[27] = v27
		var v28 uint64
		if v2 != 0 {
			v28 = v24
		} else {
			v28 = v27
		}
		vals[28] = v28
		var v32 uint64
		if v4 != 0 {
			v32 = v31
		} else {
			v32 = v29
		}
		vals[32] = v32
		var v36 uint64
		if v4 != 0 {
			v36 = v35
		} else {
			v36 = v33
		}
		vals[36] = v36
		v38 := (v2 | v25)
		vals[38] = v38
		var v41 uint64
		if v38 != 0 {
			v41 = v40
		} else {
			v41 = v37
		}
		vals[41] = v41
		var v44 uint64
		if v38 != 0 {
			v44 = v43
		} else {
			v44 = v42
		}
		vals[44] = v44
		var v47 uint64
		if v2 != 0 {
			v47 = v46
		} else {
			v47 = v45
		}
		vals[47] = v47
		var v49 uint64
		if v20 == 0x1 {
			v49 = 1
		}
		vals[49] = v49
		v50 := v8 & v49
		vals[50] = v50
		var v52 uint64
		if v50 != 0 {
			v52 = v51
		} else {
			v52 = v48
		}
		vals[52] = v52
		var v54 uint64
		if v20 == 0x3 {
			v54 = 1
		}
		vals[54] = v54
		v55 := v6 & v54
		vals[55] = v55
		var v57 uint64
		if v55 != 0 {
			v57 = v56
		} else {
			v57 = v53
		}
		vals[57] = v57
		var v59 uint64
		if v20 == 0x2 {
			v59 = 1
		}
		vals[59] = v59
		v60 := v4 & v59
		vals[60] = v60
		var v62 uint64
		if v60 != 0 {
			v62 = v61
		} else {
			v62 = v58
		}
		vals[62] = v62
		var v63 uint64
		if v0 == 0x5 {
			v63 = 1
		}
		vals[63] = v63
	}
	done := vals[63] != 0
	l0 := vals[20] & 0x7
	l1 := vals[28] & 0xffff
	l2 := vals[32] & 0xffffff
	l3 := vals[36] & 0xffffff
	l4 := vals[41] & 0xffffff
	l5 := vals[44] & 0xffffff
	l6 := vals[47] & 0xffffff
	l7 := vals[52] & 0xffffff
	l8 := vals[57] & 0xffffff
	l9 := vals[62] & 0xffffff
	vals[0] = l0
	vals[9] = l1
	vals[29] = l2
	vals[33] = l3
	vals[37] = l4
	vals[42] = l5
	vals[45] = l6
	vals[48] = l7
	vals[53] = l8
	vals[58] = l9
	return cycles + 1, done
}

func init() {
	rtl.RegisterNative("b7785925d1651b69335eafcafb7922228b9be2275ed44878100b260aa9467530", "sha_slice_all", step_sha_slice_all)
	rtl.RegisterNative("2e4b2e9f4d59aabb42b25949d22e9544d035c67ba5e73c88fc6284a510a3d3ef", "sha_slice_t42", step_sha_slice_t42)
}
