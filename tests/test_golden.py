"""Golden outputs: the README promises that identical flags give
byte-identical output, so the exit code and stdout of a few CLI runs are
pinned here verbatim.  A refactor that moves any digit fails this test.

The sweep row at k = 0.1 takes the mpmath path (C2 below the high-precision
modulus), and so does the C2 conj run at k = 0.083, whose t_conj exceeds
t_max1 by 8e-8; the capped conj run covers the second, default-cap search.
The C1 sweep pins C1's period (through its phi grid) and t_max1; the
conjugate verify suite pins the lines that read the stratum records.

The series canaries are small-k C2 runs whose mpmath scans the small-k
series screens: conj at k = 0.02, at k = 0.15 on an equality locus (the
phase of ``C2_FORMS.equality_phases(0.15)[0]``, where t_conj - t_max1 is
1.6e-14) and at k = 0.1999, next to the high-precision modulus, and the
Maxwell root at k = 0.03.

The root canaries print full reprs of a polished C1 root, a polished C2
root and an mpmath C2 root (k = 0.1) with bracket and residual.  The C2
sweep near k = 0.34 at beta = -2.2 is the most bit-sensitive output found:
an ulp of drift in the covector round trip moved half of its rows by up to
1.5e-7 relative.  The maxwell verify suite locates about 490 cold roots.
"""

import pytest

from cartanconj.cli import main

C1_EXAMPLE = ("--stratum", "C1", "--phi", "0.37", "--k", "0.5",
              "--alpha", "1", "--beta", "0.4")

GOLDEN = [
    (("conj", *C1_EXAMPLE),
     '{"stratum": "C1", "t_max1": 9.567371670096687, "t_conj": 9.602532015455896, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic+variational", '
     '"residual": 6.821210263296962e-13}\n'),
    (("conj", *C1_EXAMPLE, "--horizon", "4.0", "--no-cross-check"),
     '{"stratum": "C1", "t_max1": 9.567371670096687, "t_conj": "inf", '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", "residual": 0.0}\n'),
    (("maxwell", "--theta", "0", "--c", "2", "--alpha", "0", "--beta", "0"),
     '{"stratum": "C6", "t_max1": 4.601591631953129, "root_p": 2.3007958159765645, '
     '"bracket": [2.2962352873731073, 2.3083118211761886], '
     '"residual": 7.022160630754115e-14}\n'),
    (("sweep", "--stratum", "C2", "--k-range", "0.1:0.9", "--nk", "3", "--nphi", "2"),
     "stratum,k,phi,alpha,beta,c,t_max1,t_conj,lower_ok,upper_ok,error\n"
     "C2,0.1,0,1,0,20,0.461315591989,0.461316071442,true,true,\n"
     "C2,0.1,0.157474556152,1,0,19.8997487421,0.461315591989,0.461316071442,true,true,\n"
     "C2,0.5,0,1,0,4,2.4670472377,2.46914663179,true,true,\n"
     "C2,0.5,0.842875177406,1,0,3.46410161514,2.4670472377,2.46914663216,true,true,\n"
     "C2,0.9,0,1,0,2.22222222222,5.84901387677,6.0105502468,true,true,\n"
     "C2,0.9,2.05249422458,1,0,0.968644209676,5.84901387677,6.0105502468,true,true,\n"),
    (("sweep", "--stratum", "C1", "--k-range", "0.3:0.95", "--nk", "3", "--nphi", "2"),
     "stratum,k,phi,alpha,beta,c,t_max1,t_conj,lower_ok,upper_ok,error\n"
     "C1,0.3,0,1,0,0.6,9.17840377613,9.28330568765,true,true,\n"
     "C1,0.3,3.21609723986,1,0,-0.6,9.17840377613,9.28330568765,true,true,\n"
     "C1,0.625,0,1,0,1.25,9.97280674305,10.1078057413,true,true,\n"
     "C1,0.625,3.5421463525,1,0,-1.25,9.97280674305,10.1078057413,true,true,\n"
     "C1,0.95,0,1,0,1.9,7.31387350404,10.8892323397,true,true,\n"
     "C1,0.95,5.18002246175,1,0,-1.9,7.31387350404,10.8892323397,true,true,\n"),
    (("conj", "--no-cross-check", "--stratum", "C2", "--phi", "0.8663522887117603",
      "--k", "0.08322389590755905", "--alpha", "1.7715965331749541",
      "--beta", "-0.2284123710442918", "--direction=-1"),
     '{"stratum": "C2", "t_max1": 0.28822243337376563, "t_conj": 0.28822251508988783, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", '
     '"residual": 4.315817723032985e-34}\n'),
    (("maxwell", *C1_EXAMPLE),
     '{"stratum": "C1", "t_max1": 9.567371670096687, "root_p": 4.7836858350483435, '
     '"bracket": [4.782685835048323, 4.7846858350483235], '
     '"residual": 6.488904446602097e-14}\n'),
    (("maxwell", "--stratum", "C2", "--phi", "0.2", "--k", "0.6", "--alpha", "1", "--beta", "0.4"),
     '{"stratum": "C2", "t_max1": 3.0709012637688953, "root_p": 2.5590843864740793, '
     '"bracket": [2.5580843864745786, 2.5600843864745784], '
     '"residual": 1.0905137326362267e-19}\n'),
    (("maxwell", "--stratum", "C2", "--phi", "0.2", "--k", "0.1", "--alpha", "1", "--beta", "0.4"),
     '{"stratum": "C2", "t_max1": 0.4613155919893002, "root_p": 2.3065779599465017, '
     '"bracket": [2.2639779939624494, 2.3131731677442415], '
     '"residual": 7.625099912147632e-25}\n'),
    (("sweep", "--stratum", "C2", "--k-range", "0.31:0.37", "--nk", "4", "--nphi", "8",
      "--beta", "-2.2"),
     "stratum,k,phi,alpha,beta,c,t_max1,t_conj,lower_ok,upper_ok,error\n"
     "C2,0.31,0,1,-2.2,6.45161290323,1.46259548459,1.46274913355,true,true,\n"
     "C2,0.31,0.124830932564,1,-2.2,6.40405547497,1.46259548459,1.46269044481,true,true,\n"
     "C2,0.31,0.249661865127,1,-2.2,6.2906916569,1.46259548459,1.4625974026,true,true,\n"
     "C2,0.31,0.374492797691,1,-2.2,6.17933459148,1.46259548459,1.46265614096,true,true,\n"
     "C2,0.31,0.499323730254,1,-2.2,6.13378423594,1.46259548459,1.46274899831,true,true,\n"
     "C2,0.31,0.624154662818,1,-2.2,6.17933459148,1.46259548459,1.46269037066,true,true,\n"
     "C2,0.31,0.748985595382,1,-2.2,6.2906916569,1.46259548459,1.46259740151,true,true,\n"
     "C2,0.31,0.873816527945,1,-2.2,6.40405547497,1.46259548459,1.46265608541,true,true,\n"
     "C2,0.33,0,1,-2.2,6.06060606061,1.56239223741,1.56260599631,true,true,\n"
     "C2,0.33,0.133352761289,1,-2.2,6.00965025668,1.56239223741,1.56252426924,true,true,\n"
     "C2,0.33,0.266705522579,1,-2.2,5.88840491734,1.56239223741,1.56239491066,true,true,\n"
     "C2,0.33,0.400058283868,1,-2.2,5.76960571574,1.56239223741,1.56247654868,true,true,\n"
     "C2,0.33,0.533411045157,1,-2.2,5.72109655764,1.56239223741,1.56260605886,true,true,\n"
     "C2,0.33,0.666763806447,1,-2.2,5.76960571574,1.56239223741,1.56252424927,true,true,\n"
     "C2,0.33,0.800116567736,1,-2.2,5.88840491734,1.56239223741,1.56239491084,true,true,\n"
     "C2,0.33,0.933469329025,1,-2.2,6.00965025668,1.56239223741,1.56247652819,true,true,\n"
     "C2,0.35,0,1,-2.2,5.71428571429,1.66330247264,1.66359460161,true,true,\n"
     "C2,0.35,0.141971209045,1,-2.2,5.65986239037,1.66330247264,1.66348296477,true,true,\n"
     "C2,0.35,0.283942418091,1,-2.2,5.53061888926,1.66330247264,1.66330614038,true,true,\n"
     "C2,0.35,0.425913627136,1,-2.2,5.40432667591,1.66330247264,1.66341767395,true,true,\n"
     "C2,0.35,0.567884836181,1,-2.2,5.3528554272,1.66330247264,1.66359468765,true,true,\n"
     "C2,0.35,0.709856045227,1,-2.2,5.40432667591,1.66330247264,1.66348293372,true,true,\n"
     "C2,0.35,0.851827254272,1,-2.2,5.53061888926,1.66330247264,1.66330614031,true,true,\n"
     "C2,0.35,0.993798463317,1,-2.2,5.65986239037,1.66330247264,1.66341767423,true,true,\n"
     "C2,0.37,0,1,-2.2,5.40540540541,1.76542563226,1.76581925108,true,true,\n"
     "C2,0.37,0.150695147263,1,-2.2,5.34743873292,1.76542563226,1.7656687961,true,true,\n"
     "C2,0.37,0.301390294525,1,-2.2,5.21006990929,1.76542563226,1.76543059284,true,true,\n"
     "C2,0.37,0.452085441788,1,-2.2,5.07622991406,1.76542563226,1.76558080714,true,true,\n"
     "C2,0.37,0.60278058905,1,-2.2,5.02179326504,1.76542563226,1.76581930025,true,true,\n"
     "C2,0.37,0.753475736313,1,-2.2,5.07622991406,1.76542563226,1.76566880135,true,true,\n"
     "C2,0.37,0.904170883575,1,-2.2,5.21006990929,1.76542563226,1.76543059281,true,true,\n"
     "C2,0.37,1.05486603084,1,-2.2,5.34743873292,1.76542563226,1.76558081194,true,true,\n"),
    (("verify", "--suite", "maxwell", "--seed", "0"),
     "[PASS] maxwell: root brackets (K,3K), [2K,4K), (K,2K), (pi/2,pi): worst 0.000e+00 vs tol 5.0e-01\n"
     "[PASS] maxwell: min attained by p1z outside (k1,k0), by p1v inside: worst 0.000e+00 vs tol 5.0e-01"
     "  (k1=0.802230 k0=0.908909)\n"
     "[PASS] maxwell: p1z, p1v continuous on k-grids (p1v: off the k1 jump): worst 2.199e-01 vs tol 5.0e-01\n"
     "[PASS] maxwell: C2 -> C6 limit of t_max1 (h4 = 1e-4): worst 7.388e-06 vs tol 1.0e-03\n"
     "[PASS] maxwell: t_max1 scales by e^r under dilation: worst 2.807e-16 vs tol 1.0e-09\n"
     "PASS: 5/5 checks\n"),
    (("exp", "--theta", "0", "--c", "1", "--alpha", "0", "--beta", "0", "--t", "3.14"),
     "0.00159265291648 1.99999873173 1.56920367354 1.99999746346 1.56761102164\n"),
    (("conj", "--no-cross-check", "--stratum", "C2", "--phi", "0.31", "--k", "0.02",
      "--alpha", "1.3", "--beta", "0.7"),
     '{"stratum": "C2", "t_max1": 0.08072533025534386, "t_conj": 0.08072533033756615, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", '
     '"residual": 4.3351708906457646e-45}\n'),
    (("conj", "--no-cross-check", "--stratum", "C2", "--phi", "0.12683994171907925",
      "--k", "0.15", "--alpha", "1", "--beta", "0.3"),
     '{"stratum": "C2", "t_max1": 0.6941675133368418, "t_conj": 0.6941675133368581, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", '
     '"residual": 1.562930243337118e-28}\n'),
    (("conj", "--no-cross-check", "--stratum", "C2", "--phi", "1.6", "--k", "0.1999",
      "--alpha", "0.6", "--beta", "-1.1", "--direction=-1"),
     '{"stratum": "C2", "t_max1": 1.1996487459213712, "t_conj": 1.1996663327768644, '
     '"lower_ok": true, "upper_ok": true, "method": "analytic", '
     '"residual": 3.5908704513979954e-29}\n'),
    (("maxwell", "--stratum", "C2", "--phi", "0.2", "--k", "0.03", "--alpha", "1", "--beta", "0.4"),
     '{"stratum": "C2", "t_max1": 0.1380788242703561, "root_p": 2.3013137378392683, '
     '"bracket": [2.258809280849283, 2.307892091302528], '
     '"residual": 8.19322810710579e-29}\n'),
    (("verify", "--suite", "conjugate", "--seed", "0"),
     "[PASS] conjugate: J1 < 0 on (0, t_max) over a C1 (k,phi,alpha,beta) grid: worst 0.000e+00 vs tol 5.0e-01\n"
     "[PASS] conjugate: J1 > 0 on (0, t_max) over a C2 (k,psi,alpha,beta) grid: worst 0.000e+00 vs tol 5.0e-01\n"
     "[PASS] conjugate: a2 > 0, a0 < 0, a0+a1+a2 < 0 on (0, p1): worst 0.000e+00 vs tol 5.0e-01\n"
     "[PASS] conjugate: J1 = -a2 xi(1-xi) at the fv root (C2): worst 5.727e-10 vs tol 1.0e-09\n"
     "[PASS] conjugate: analytic and variational first zeros agree: worst 0.000e+00 vs tol 1.0e-04"
     "  (6 random extremals)\n"
     "[PASS] conjugate: certificates x2 >= 0 and x1 >= 0: worst 0.000e+00 vs tol 1.0e-12\n"
     "[PASS] conjugate: certificate derivative identities: worst 9.808e-10 vs tol 1.0e-05\n"
     "[PASS] conjugate: t_conj invariant under reflection/rotation/dilation: worst 4.091e-09 vs tol 1.0e-06\n"
     "[PASS] conjugate: equality cases give t_conj = t_max: worst 3.877e-13 vs tol 1.0e-06\n"
     "[PASS] conjugate: two-sided bounds hold: worst 0.000e+00 vs tol 5.0e-01\n"
     "PASS: 10/10 checks\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=["conj_c1", "conj_capped", "maxwell_c6", "sweep_c2", "sweep_c1",
                              "conj_c2_mp", "maxwell_c1", "maxwell_c2", "maxwell_c2_mp",
                              "sweep_c2_ulp", "verify_maxwell", "exp_circle",
                              "conj_c2_series_k002", "conj_c2_series_locus",
                              "conj_c2_series_k01999", "maxwell_c2_series_k003",
                              "verify_conjugate"])
def test_golden_output(capsys, argv, expected):
    code = main(list(argv))
    assert code == 0
    assert capsys.readouterr().out == expected
