package repro.experiments

import repro.SparkSpec

/** Smoke coverage for the experiment harness shared by jobs/ and bench/:
  * the full-scale assertions live in the bench suites; here we pin the
  * harness's structure at unit scale.
  */
class ExperimentsSpec extends SparkSpec {

  test("render produces an aligned table") {
    val out = Experiments.render("t", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = out.split("\n")
    assert(lines.head == "== t")
    assert(lines.drop(1).map(_.length).distinct.size == 1, "rows must align")
  }

  test("B1 at unit scale orders policies by volume") {
    val rows = Experiments.b1(spark, 0.002)
    assert(rows.head.mode.contains("continuous"))
    assert(rows.last.mode.contains("WATERMARK"))
    val e = rows.map(_.emitted)
    assert(e == e.sorted.reverse)
  }

  test("B3 at unit scale reports a zero-drop watermark row") {
    val rows = Experiments.b3(spark, 0.002)
    assert(rows.last.policy.contains("watermark") && rows.last.droppedRows == 0)
  }

  test("B4 at unit scale keeps the watermark column exact") {
    val rows = Experiments.b4(spark, 0.002, skews = Seq(0L, 120000L))
    assert(rows.forall(_.watermark == 1.0))
  }

  test("renderers embed the table titles") {
    assert(Experiments.renderB1(Experiments.b1(spark, 0.001)).contains("B1"))
    assert(Experiments.renderB3(Experiments.b3(spark, 0.001)).contains("B3"))
  }
}
