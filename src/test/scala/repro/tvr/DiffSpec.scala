package repro.tvr

import org.apache.spark.sql.{DataFrame, Row}

import repro.SparkSpec

class DiffSpec extends SparkSpec {
  import spark.implicits._

  /** `df` collapsed to `(k, __cnt)`, the input shape of `expand`. */
  private def counted(df: DataFrame): DataFrame =
    df.groupBy("k").count().withColumnRenamed("count", "__cnt")

  test("expand is the inverse of counted") {
    val df  = Seq("a", "a", "b", "c", "c", "c").toDF("k")
    val out = Diff.expand(counted(df)).collect().map(_.getString(0)).sorted
    assert(out.toSeq == Seq("a", "a", "b", "c", "c", "c"))
  }

  test("toBag groups rows by full value") {
    val bag = Diff.toBag(Seq(Row("x", 1), Row("x", 1), Row("y", 2)))
    assert(bag == Map(Seq("x", 1) -> 2, Seq("y", 2) -> 1))
  }

  test("bagDiff computes signed multiset difference") {
    val before = Map(Seq[Any]("a") -> 2, Seq[Any]("b") -> 1)
    val after  = Map(Seq[Any]("a") -> 1, Seq[Any]("c") -> 2)
    val (ins, dels) = Diff.bagDiff(before, after)
    assert(ins == Seq(Seq("c"), Seq("c")))
    assert(dels == Seq(Seq("a"), Seq("b")))
  }

  test("bagDiff of equal bags is empty") {
    val bag = Map(Seq[Any](1) -> 3)
    assert(Diff.bagDiff(bag, bag) == (Nil, Nil))
  }

  test("applying bagDiff to before yields after (round-trip)") {
    val before = Map(Seq[Any]("a") -> 2, Seq[Any]("b") -> 1)
    val after  = Map(Seq[Any]("b") -> 3, Seq[Any]("d") -> 1)
    val (ins, dels) = Diff.bagDiff(before, after)
    val rebuilt = (before.toSeq.flatMap { case (k, n) => Seq.fill(n)(k) } ++ ins)
      .diff(dels)
      .groupBy(identity).view.mapValues(_.size).toMap
    assert(rebuilt == after)
  }

  test("counted handles nulls as ordinary values") {
    val df  = Seq(Some("a"), None, None).toDF("k")
    val out = Diff.expand(counted(df)).collect().map(r => Option(r.getString(0)))
    assert(out.sorted.toSeq == Seq(None, None, Some("a")))
  }
}
