package repro.tvr

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._

/** Multiset algebra over relations.
  *
  * A TVR snapshot is a *bag* of rows; the changelog between two snapshots
  * is their bag difference rendered as INSERT rows and retraction
  * (`undo`) rows — the paper's stream/table duality (Section 3.3.1).
  * `expand` serves [[Tvr.snapshotsAt]]; the driver-side bag operations
  * serve the reference evaluator, whose snapshots are small and are
  * diffed in processing-time order.
  */
object Diff {

  /** Expand a counted relation `(dataCols..., __cnt)` back to a bag. */
  def expand(countedDf: DataFrame): DataFrame =
    countedDf
      .withColumn("__i", explode(sequence(lit(1L), col("__cnt"))))
      .drop("__cnt", "__i")

  // ------------------------------------------------------------------
  // Driver-side bag operations (reference evaluator; snapshots collected)
  // ------------------------------------------------------------------

  /** A bag of rows keyed by their full value sequence. */
  def toBag(rows: Seq[Row]): Map[Seq[Any], Int] =
    rows.groupBy(r => r.toSeq).map { case (k, v) => (k, v.size) }

  /** Cells in a total order: nulls first, cells of one `Comparable` class
    * by value, any others by class name and then by text.
    */
  private val cellOrder: Ordering[Any] = {
    case (null, null) => 0
    case (null, _)    => -1
    case (_, null)    => 1
    case (a: Comparable[_], b) if a.getClass == b.getClass => a.asInstanceOf[Comparable[Any]].compareTo(b)
    case (a, b) =>
      val byClass = a.getClass.getName.compareTo(b.getClass.getName)
      if (byClass != 0) byClass else a.toString.compareTo(b.toString)
  }

  /** Bag difference: rows to insert (positive multiplicity) and rows to
    * retract, each ordered by their cells, first cell first.
    */
  def bagDiff(before: Map[Seq[Any], Int], after: Map[Seq[Any], Int])
      : (Seq[Seq[Any]], Seq[Seq[Any]]) = {
    val keys = (before.keySet ++ after.keySet).toSeq.sorted(Ordering.Implicits.seqOrdering[Seq, Any](cellOrder))
    val ins  = Vector.newBuilder[Seq[Any]]
    val del  = Vector.newBuilder[Seq[Any]]
    keys.foreach { k =>
      val d = after.getOrElse(k, 0) - before.getOrElse(k, 0)
      if (d > 0) (1 to d).foreach(_ => ins += k)
      else if (d < 0) (1 to -d).foreach(_ => del += k)
    }
    (ins.result(), del.result())
  }
}
